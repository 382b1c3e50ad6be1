"""Repetition-free longest common subsequences of random k-ary sequences:
domain types, seeded generators, exact and heuristic solvers, urn
occupancy models, closed-form tail bounds, and a Monte Carlo harness."""

from .errors import CapacityError
from .model import (
    Instance,
    PlantedCertificate,
    SolveResult,
    is_repetition_free,
    validate_certificate,
    validate_matching,
)
from .rng import RngStream

__all__ = [
    "CapacityError",
    "Instance",
    "PlantedCertificate",
    "RngStream",
    "SolveResult",
    "is_repetition_free",
    "validate_certificate",
    "validate_matching",
]
