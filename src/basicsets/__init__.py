"""Exact certificates and decision procedures for additively separable
lattice point sets, in the plane and in space."""

from .core import (Axis, DuplicatePoint, ParseError, Point, PointSet, SliceId,
                   canonicalize, parse_points_auto, parse_points_json,
                   parse_points_text, format_points_text, slices_of)
from .decide import (Certificate, Color, Decomposition, DomainMismatch,
                     InvalidColoring, NotNonBasic, Verdict, Witness,
                     coloring_certificate, decompose, indicator_witness,
                     is_basic, peel, slice_matrix)
from .graphs import (FastKind, FastResult, Graph, NotTwoRegular,
                     bipartite_components, coboundary_matrix,
                     fast_is_basic, graph_is_basic, graph_is_basic_rank,
                     point_graph, solve_edges)
from .generators import (ClosedLightning, Lightning, boyarov_split,
                         closed_lightning, construction_split, fixtures,
                         is_basic_2d, is_lightning)
from .search import (GridSpec, MinimalityReport, Survey, enumerate_minimal,
                     is_minimal_nonbasic, max_weight_survey,
                     minimize_certificate)

__version__ = "0.1.0"

__all__ = [
    "Axis", "Certificate", "ClosedLightning", "Color", "Decomposition",
    "DomainMismatch", "DuplicatePoint", "FastKind", "FastResult", "Graph",
    "GridSpec", "InvalidColoring", "Lightning", "MinimalityReport",
    "NotNonBasic", "NotTwoRegular", "ParseError", "Point", "PointSet",
    "SliceId", "Survey", "Verdict", "Witness", "bipartite_components",
    "boyarov_split", "canonicalize", "closed_lightning",
    "coboundary_matrix", "coloring_certificate", "construction_split",
    "decompose", "enumerate_minimal", "fast_is_basic", "fixtures",
    "format_points_text", "graph_is_basic", "graph_is_basic_rank",
    "indicator_witness", "is_basic", "is_basic_2d", "is_lightning",
    "is_minimal_nonbasic", "max_weight_survey", "minimize_certificate",
    "parse_points_auto", "parse_points_json", "parse_points_text", "peel",
    "point_graph", "slice_matrix", "slices_of", "solve_edges",
]
