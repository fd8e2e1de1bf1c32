"""Spectral toolkit for harmonic maps of annuli.

Harmonic maps are finite Fourier-Laurent coefficient tables, so circle
averages, energies, quadratic-form certificates, and the weighted integral
identity all evaluate as exact finite sums, each backed by an independent
quadrature oracle.
"""

from .annulus_core import (
    AhmFormatError,
    AnnulusDomainError,
    AnnulusMap,
    CoefficientRangeError,
    PolarJet,
    evaluate,
    evaluate_rings,
    is_conformal,
    random_annulus_map,
    read_ahm,
    solve_dirichlet,
    trace,
    write_ahm,
)
from .circle_means import (
    RadialProfile,
    energy_green,
    energy_quadrature,
    means_closed_form,
    means_quadrature,
    operator_L,
    operator_L_conformal,
    radial_profile,
)
from .disk_maps import (
    BoundaryHomeo,
    DiskMap,
    boundary_normal_derivative,
    jacobian_energy_chain,
    lemma_functional,
    lemma_functional_split,
    normal_derivative_spectral,
    poisson_extend,
    psi_region_check,
    random_boundary_homeo,
    read_bhm,
    write_bhm,
)
from .identity_engine import (
    IdentityReport,
    identity_lhs,
    identity_rhs,
    thin_annulus_bound,
    verify_identity,
)
from .minimal_surface import (
    BranchError,
    MinimalLift,
    NoLiftError,
    catenoid_modulus,
    lift,
    modulus_bound_check,
    phi_zeros,
)
from .nitsche_family import (
    NitscheParams,
    NoHarmonicHomeomorphism,
    check_initial_conditions,
    construct_harmonic_homeo,
    energy_minimizer,
    example_51_map,
    nitsche_bound_holds,
    nitsche_map,
)
from .quadratic_forms import (
    QFormEval,
    circle_functionals,
    positivity_scan,
    prop52_certificate,
    qform_coefficients,
    qform_decomposition,
    qform_value,
)

__version__ = "0.1.0"
