"""Layered triangulations of 2-bridge link complements.

Construct the standard layered (Sakuma-Weeks) ideal triangulation of a
2-bridge link complement from its twist word, simplify it with 3-2 and
4-4 moves, compute Regina-compatible isomorphism signatures, build exact
angle structures block-by-block, and derive volume-based lower and upper
bounds on triangulation complexity.
"""

__version__ = "0.1.0"

from .angles import (
    AngleAssignment,
    assign_angles,
    expand_to_tetrahedra,
    verify_angle_structure,
)
from .blocks import Block, BlockDecomposition, decompose
from .isosig import decode_isosig, encode_isosig
from .moves import SimplificationTrace, simplify
from .triangulation import (
    EdgeClassTable,
    Triangulation,
    ValidationReport,
    build_sakuma_weeks,
    degree_predicates,
    edge_classes,
    gluing_table,
    validate,
)
from .volume import (
    BoundsReport,
    bounds_report,
    lobachevsky,
    maximize_volume,
    v3,
)
from .word import Word, enumerate_words, inner_word, is_hyperbolic, normalize, parse_word, render

__all__ = [
    "AngleAssignment",
    "Block",
    "BlockDecomposition",
    "BoundsReport",
    "EdgeClassTable",
    "SimplificationTrace",
    "Triangulation",
    "ValidationReport",
    "Word",
    "assign_angles",
    "bounds_report",
    "build_sakuma_weeks",
    "decode_isosig",
    "decompose",
    "degree_predicates",
    "edge_classes",
    "encode_isosig",
    "enumerate_words",
    "expand_to_tetrahedra",
    "gluing_table",
    "inner_word",
    "is_hyperbolic",
    "lobachevsky",
    "maximize_volume",
    "normalize",
    "parse_word",
    "render",
    "simplify",
    "v3",
    "validate",
    "verify_angle_structure",
]
