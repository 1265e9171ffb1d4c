"""Exact Newton-Okounkov bodies of graded linear series on projective
space, with a Zariski-decomposition engine for surfaces.

The package computes truncated Okounkov bodies with exactness
certificates, as hulls of the indecomposable points of truncated value
semigroups read one level at a time, the lattice indices of the value
groups, slices and restricted series, base loci and sheafifications of
monomial series, volume identities, and piecewise linear body
descriptions on surfaces given by an intersection lattice.  All
arithmetic is exact rational.
"""

from __future__ import annotations

from .errors import (
    InputError,
    InvariantError,
    OkbodyError,
    TruncationError,
    UnsupportedModeError,
)
from .polyform import FormSpan, HomogeneousForm
from .flagval import Flag, filtered_dimension, valuation
from .glseries import GradedSeries, HilbertData
from .convbody import (
    BodyReport,
    RationalPolytope,
    okounkov_body,
    valuative_witness,
)
from .monideal import (
    BaseLocusReport,
    BirationalityReport,
    FullVolumeReport,
    MonomialIdeal,
    base_ideal,
    full_volume_check,
    is_birational_monomial,
    locus_components,
    saturate,
    sheafify,
    stable_base_locus,
)
from .surfacezar import (
    BoundaryStratum,
    SurfaceBody,
    SurfaceLattice,
    ZariskiDecomposition,
    classify_boundary,
    mu,
    surface_body,
    zariski,
)

__version__ = "0.1.0"

__all__ = [
    "OkbodyError",
    "InputError",
    "TruncationError",
    "UnsupportedModeError",
    "InvariantError",
    "HomogeneousForm",
    "FormSpan",
    "Flag",
    "valuation",
    "filtered_dimension",
    "GradedSeries",
    "HilbertData",
    "RationalPolytope",
    "BodyReport",
    "okounkov_body",
    "valuative_witness",
    "MonomialIdeal",
    "saturate",
    "base_ideal",
    "locus_components",
    "BaseLocusReport",
    "stable_base_locus",
    "sheafify",
    "BirationalityReport",
    "is_birational_monomial",
    "FullVolumeReport",
    "full_volume_check",
    "SurfaceLattice",
    "ZariskiDecomposition",
    "zariski",
    "mu",
    "SurfaceBody",
    "surface_body",
    "BoundaryStratum",
    "classify_boundary",
    "__version__",
]
