"""fraclap: a desk-scale toolkit for fractional-Laplacian calculus on the
periodic box — spectral multiplier operators, singular-integral forms,
Lorentz/rearrangement norms, dyadic cutoff families, compensation
commutators, mean-value Poincare and Hodge experiments, and the discrete
iteration/Dirichlet-growth machinery, each exposed as a seeded, reproducible
experiment through the `fraclap` CLI."""

from .grid import (
    DomainMask,
    Grid,
    GridError,
    GridFunction,
    annulus_mask,
    ball_mask,
    l2_inner,
    lp_norm,
    transform_forward,
    transform_inverse,
)
from .multipliers import (
    FrequencySymbol,
    apply_symbol,
    derived_symbol,
    frac_laplacian,
    inv_frac_laplacian,
)
from .singular import (
    CalibratedConstant,
    calibrate_cns,
    equivalence_ratio,
    frac_lap_pointwise,
    gagliardo_seminorm,
)
from .lorentz import (
    RearrangementProfile,
    decreasing_rearrangement,
    lorentz_norm,
    weighted_power_profile,
)
from .cutoffs import DyadicCutoffFamily, build_family
from .compensation import SphereValuedMap, commutator_H, h_norm_ratio, structure_identity_residual
from .meanvalue import MeanValuePolynomial, meanvalue_polynomial, poincare_constant
from .hodge import HodgeDecomposition, hodge_decompose
from .growth import AnnulusSequence, GrowthReport, driteration, iteration_reduce

__version__ = "0.1.0"

__all__ = [
    "AnnulusSequence",
    "CalibratedConstant",
    "DomainMask",
    "DyadicCutoffFamily",
    "FrequencySymbol",
    "Grid",
    "GridError",
    "GridFunction",
    "GrowthReport",
    "HodgeDecomposition",
    "MeanValuePolynomial",
    "RearrangementProfile",
    "SphereValuedMap",
    "annulus_mask",
    "apply_symbol",
    "ball_mask",
    "build_family",
    "calibrate_cns",
    "commutator_H",
    "decreasing_rearrangement",
    "derived_symbol",
    "driteration",
    "equivalence_ratio",
    "frac_lap_pointwise",
    "frac_laplacian",
    "gagliardo_seminorm",
    "h_norm_ratio",
    "hodge_decompose",
    "inv_frac_laplacian",
    "iteration_reduce",
    "l2_inner",
    "lorentz_norm",
    "lp_norm",
    "meanvalue_polynomial",
    "poincare_constant",
    "structure_identity_residual",
    "transform_forward",
    "transform_inverse",
    "weighted_power_profile",
]
