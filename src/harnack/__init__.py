"""Certified bounds on the Harnack distance in bounded Euclidean domains.

The package computes a sandwich around the Harnack distance between points
of a bounded domain: exact values where a closed form exists (balls, the
planar disk), certified lower bounds via enclosing balls and their
Poisson kernels, and certified upper bounds via the entropy of linear
connectivity and via separation exponents of point sequences.
"""

from .geometry import (
    Ball,
    Box,
    Lattice,
    Polygon2D,
    UnionOfBalls,
    diameter,
    hull_clearance,
    load_domain,
    load_point_set,
)
from .exact import (
    LowerBoundCertificate,
    ball_harnack_from_center,
    ball_harnack_two_points,
    poisson_witness_lower_bound,
)
from .entropy import (
    BallChain,
    EacEstimate,
    build_ball_chain,
    eac_estimate,
    eac_harnack_bound,
    eac_hull_bound,
)
from .separation import (
    SeparationResult,
    chain_bound,
    pair_bound,
    pair_separation,
    sequence_separation,
    set_harnack_bound,
    set_separation,
    verify_between_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "Lattice",
    "Polygon2D",
    "UnionOfBalls",
    "diameter",
    "hull_clearance",
    "load_domain",
    "load_point_set",
    "LowerBoundCertificate",
    "ball_harnack_from_center",
    "ball_harnack_two_points",
    "poisson_witness_lower_bound",
    "BallChain",
    "EacEstimate",
    "build_ball_chain",
    "eac_estimate",
    "eac_harnack_bound",
    "eac_hull_bound",
    "SeparationResult",
    "chain_bound",
    "pair_bound",
    "pair_separation",
    "sequence_separation",
    "set_harnack_bound",
    "set_separation",
    "verify_between_conditions",
]
