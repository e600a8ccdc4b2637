"""Quantum-optical intensity interferometry for a Michelson-style setup.

Computes the normalized single-photon detection intensity ⟨I⟩(τ)/⟨I⟩(0)
for Fock, coherent, thermal, and vacuum input states, cross-validates
closed forms against direct quadrature and brute-force discrete-mode
oracles, and solves the inverse problems (temperature-ratio thermometry,
spectral-parameter estimation, thermal coherence time).
"""

from .inference import (
    DEFAULT_COHERENCE_EPSILON,
    CoherenceReport,
    FitProblem,
    FitResult,
    IdentifiabilityError,
    NonConvergenceError,
    StateClassification,
    discriminate_state_class,
    estimate_coherence_time,
    fit,
)
from .intensity import (
    IntensityRequest,
    Interferogram,
    coherent_intensity,
    coherent_intensity_closed,
    compute_interferogram,
    fock_intensity,
    fock_intensity_closed,
    one_photon_vacuum_ratio,
    thermal_thermal_ratio,
    thermal_vacuum_ratio,
)
from .quadrature import QuadratureError, QuadratureResult, integrate, integrate_half_line
from .spectra import SpectralDistribution, normalization_constant, weighted_overlap
from .states import (
    Coherent,
    OnePhoton,
    PortState,
    Thermal,
    Vacuum,
    bose_weighted_integral,
    mean_occupation,
)
from .thermal_kernels import bose_integral_constant, fringe_deviation

__version__ = "0.1.0"

__all__ = [
    "Coherent",
    "CoherenceReport",
    "DEFAULT_COHERENCE_EPSILON",
    "FitProblem",
    "FitResult",
    "IdentifiabilityError",
    "IntensityRequest",
    "Interferogram",
    "NonConvergenceError",
    "OnePhoton",
    "PortState",
    "QuadratureError",
    "QuadratureResult",
    "SpectralDistribution",
    "StateClassification",
    "Thermal",
    "Vacuum",
    "bose_integral_constant",
    "bose_weighted_integral",
    "coherent_intensity",
    "coherent_intensity_closed",
    "compute_interferogram",
    "discriminate_state_class",
    "estimate_coherence_time",
    "fit",
    "fock_intensity",
    "fock_intensity_closed",
    "fringe_deviation",
    "integrate",
    "integrate_half_line",
    "mean_occupation",
    "normalization_constant",
    "one_photon_vacuum_ratio",
    "thermal_thermal_ratio",
    "thermal_vacuum_ratio",
    "weighted_overlap",
]
