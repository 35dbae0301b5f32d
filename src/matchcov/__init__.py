"""Matching covered multigraphs: removable classes, tight cut
decompositions, bricks and braces, wheel-like structure, and exhaustive
desk-scale verification campaigns."""

from .multigraph import Multigraph, vertex_connectivity
from .matching import (
    enumerate_perfect_matchings,
    has_perfect_matching,
    matching_number,
    max_matching,
)
from .canon import automorphisms, canonical_form, canonical_labeling, is_isomorphic, vertex_orbits
from .covered import (
    Doubleton,
    Single,
    has_two_nonadjacent_removable_edges,
    is_bicritical,
    is_brick,
    is_matching_covered,
    is_minimal_mc,
    is_near_bipartite,
    is_removable_edge,
    removable_classes,
    removable_doubletons,
    removable_edges,
)
from .cuts import (
    Barrier,
    barriers,
    is_robust,
    is_separating,
    is_tight,
    maximal_barriers,
    two_separations,
)
from .decomposition import (
    brick_count,
    decomposition_multiset,
    is_brace,
    is_near_brick,
    is_solid,
    tight_cut_decomposition,
)
from .bipartite import (
    PSet,
    RemovabilityCertificate,
    bipartition,
    is_removable_bipartite,
    minimum_P_set,
)
from .wheels import (
    SpliceNode,
    WheelLeaf,
    WheelSpec,
    build_from_certificate,
    check_odd_wheel_splice,
    g_family_closure,
    is_wheel_like,
    make_wheel,
    search_G_certificate,
    simple_wheel,
    splice,
    verify_certificate,
)
from .graphio import decode_graph6, encode_graph6, format_mg, parse_graph_text, parse_mg
from .generate import enumerate_connected_graphs, enumerate_multigraphs, multiplicity_sweep
from .campaigns import CAMPAIGNS, analyze_graph, run_campaign, run_corpus
from . import zoo
from . import errors

__version__ = "0.1.0"
