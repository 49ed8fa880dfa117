"""Exact set arithmetic, MSTD constructions, group embeddings, and search."""

from .setops import (
    IntSet, MstdDelta, SymmetryWitness, affine, diffset, h_fold, interval, mstd_delta,
    normalize, sum_diff, sumset, symmetry_witness,
)
from .constructions import (
    ConstructionError, Gap, GapBase, IntervalGapFacts, OneTrackParams, TwoTrackParams,
    gap_base_recipe, gap_family, hegarty_roesler_family, interval_with_gap,
    one_track_family, two_dim_family, two_track_family,
)
from .grouplattice import (
    EmbedError, EmbedResult, EmbeddingConsistency, GroupSpec, GroupSubset, LatticeSet,
    LinearImage, ThickeningBounds, embed_report, embedding_consistency, find_thickness,
    group_sum_diff, lattice_sum_diff, lattice_sum_diff_card, linearize, minkowski_sum,
    reduce_to_cell, sublattice_box, thicken, thickening_bounds, to_lattice,
)
from .counting import (
    CoverReport, ParityGraph, count_covering, coverage_bound, covers_group,
    find_group_mstd, miss_count,
)
from .search import SearchReport, exhaustive_spectrum, random_search

__all__ = [
    # setops
    "IntSet", "MstdDelta", "SymmetryWitness", "affine", "diffset", "h_fold", "interval",
    "mstd_delta", "normalize", "sum_diff", "sumset", "symmetry_witness",
    # constructions
    "ConstructionError", "Gap", "GapBase", "IntervalGapFacts", "OneTrackParams",
    "TwoTrackParams", "gap_base_recipe", "gap_family", "hegarty_roesler_family",
    "interval_with_gap", "one_track_family", "two_dim_family", "two_track_family",
    # grouplattice
    "EmbedError", "EmbedResult", "EmbeddingConsistency", "GroupSpec", "GroupSubset",
    "LatticeSet", "LinearImage", "ThickeningBounds", "embed_report",
    "embedding_consistency", "find_thickness", "group_sum_diff", "lattice_sum_diff",
    "lattice_sum_diff_card", "linearize", "minkowski_sum", "reduce_to_cell",
    "sublattice_box", "thicken", "thickening_bounds", "to_lattice",
    # counting
    "CoverReport", "ParityGraph", "count_covering", "coverage_bound", "covers_group",
    "find_group_mstd", "miss_count",
    # search
    "SearchReport", "exhaustive_spectrum", "random_search",
]
