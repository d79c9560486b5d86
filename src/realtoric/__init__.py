"""Exact mod-2 topology of real and complex toric varieties from fans.

Given a rational fan, this package computes closed-support mod-2 Betti
numbers of the real points, the first and second pages of the complex
orbit spectral sequence, the filtered pages on the real side, and an
M-variety certificate obtained by sandwiching the real Betti sum between
exact page totals.  All arithmetic is exact (arbitrary-precision
integers and bit-packed GF(2) linear algebra).
"""
from .analysis import (
    BatchReport,
    MVerdict,
    SurfaceReport,
    dim3_theorem_batch,
    m_verdict,
    surface_betti_oracle,
)
from .constructions import (
    affine_fan,
    cyclic_polytope_normal_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    same_mod2_surface_fan,
    torus_fan,
    weighted_projective_fan,
)
from .fan import (
    BadIntersection,
    Cone,
    Fan,
    FanError,
    NonPrimitiveRay,
    NotPointed,
    ParseError,
    ResourceLimitExceeded,
    ValidationError,
    fan_from_json,
    fan_to_json,
    from_maximal_cones,
    read_json,
    write_json,
)
from .spectral import (
    PageTable,
    RealComplex,
    betti_real,
    e1_page,
    e2_dims,
    g_pages,
    real_complex,
)

__version__ = "0.1.0"

__all__ = [
    "BadIntersection",
    "BatchReport",
    "Cone",
    "Fan",
    "FanError",
    "MVerdict",
    "NonPrimitiveRay",
    "NotPointed",
    "PageTable",
    "ParseError",
    "RealComplex",
    "ResourceLimitExceeded",
    "SurfaceReport",
    "ValidationError",
    "affine_fan",
    "betti_real",
    "cyclic_polytope_normal_fan",
    "dim3_theorem_batch",
    "e1_page",
    "e2_dims",
    "fan_from_json",
    "fan_to_json",
    "from_maximal_cones",
    "g_pages",
    "hirzebruch_fan",
    "m_verdict",
    "product_fan",
    "projective_space_fan",
    "random_fan",
    "read_json",
    "real_complex",
    "same_mod2_surface_fan",
    "surface_betti_oracle",
    "torus_fan",
    "weighted_projective_fan",
    "write_json",
]
