"""Exact toric polytope geometry and non-archimedean entropy functionals.

The package computes entropy-type functionals (mu, sigma, their lambda
combinations, Futaki pairings, Calabi energy) for polarized toric varieties
described by rational moment polytopes, together with the supporting exact
geometry: hulls, lattice-normalized measures, piecewise affine convex
potentials, pushforward measures, Orlicz-type metrics, and monomial
filtration spectral measures.

Every argument the library cannot use raises InputError (a ValueError), as
does an exact value beyond the float range or a nonzero divisor (a volume)
below it: each becomes a float in one gate, polytope._finite.
"""

from .polytope import (
    EMPTY,
    DegenerateHull,
    Facet,
    InputError,
    LatticePolytope,
    RationalVector,
    Simplex,
    VertexCone,
    build_polytope,
    clip,
    facet_measure,
    polytope_from_json,
    triangulate,
    volume,
)
from .paconvex import (
    AffineForm,
    DHSummary,
    EmptyPieces,
    LegendreTransform,
    PiecewiseAffineConvex,
    boundary_pa_moment,
    common_cells,
    dh_cdf,
    dh_summary,
    legendre,
    legendre_dual,
    make_pa,
    metric_dexp,
    metric_dp,
    pa_moment,
    poly_moment,
    rooftop,
    sup_abs_diff,
)
from .integrate import (
    KERNEL_BACKEND,
    CrossValidation,
    ExpIntegrator,
    IntegralResult,
    NonSimpleVertex,
    ValidationFailure,
    boundary_exp_integral,
    brion_localize_limit,
    cross_validate,
    polytope_exp_integral,
    simplex_exp_integral,
)
from .functionals import (
    CalabiReport,
    EntropyPoint,
    EntropyReport,
    calabi,
    entropy_curve,
    extremal_limit_check,
    futaki,
    kappa,
    mabuchi_slope,
    mu_lambda,
    mu_star,
    sigma_star,
)
from .optimize import (
    MaxIterExceeded,
    OptimizationResult,
    maximize_along_ray,
    maximize_over_vectors,
    normalized_df,
)
from .filtration import (
    GradedSections,
    MonomialFiltration,
    NonConvergent,
    SpectralMeasure,
    corner_filtration,
    corner_flat_filtration,
    char_mu_estimate,
    char_mu_exact,
    check_superadditive,
    sections,
    spectral_measure,
)

__version__ = "0.1.0"
