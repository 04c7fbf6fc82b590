"""Numerical calculus and verification toolkit for first-jet-bundle stress
theory in adapted chart coordinates."""

from .chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    integrate_boundary,
    integrate_volume,
    partial_derivative,
    stokes_residual,
)
from .sections import (
    Configuration,
    FiberSpec,
    JetPoint,
    JetSection,
    Section,
    VelocityField,
    VelocityJet,
    holonomy_residual,
    iso_K,
    iso_K_inv,
    jet_prolong_config,
    jet_prolong_velocity,
)
from .stress import (
    TractionStressDensity,
    VariationalStressDensity,
    divergence,
    exterior_jet,
    stress_pairing,
    traction_extract,
    virtual_power_of_stress,
)
from .forces import (
    BodyForceDensity,
    ForceFunctional,
    equilibrated_force_residual,
    virtual_power_of_force,
)
from .equilibrium import equilibrium_residuals, force_from_stress, weak_strong_consistency
from .material import (
    ConstitutiveDensity,
    LagrangianDensity,
    PotentialDensities,
    bvp_residual,
    constitutive_from_lagrangian,
    energy_variation_residual,
    loading_from_potential,
    pullback_constitutive,
    total_energy,
)
from .forms import (
    FlatMetric,
    PForm,
    exterior_derivative,
    hodge_star,
    maxwell_vacuum_check,
    pform_virtual_power,
    wedge,
)
from .scenarios import Report, ScenarioConfig, run_scenario

__version__ = "0.1.0"
