"""Simulation and design toolkit for spectrally engineered photon-pair sources."""

__version__ = "0.1.0"

from .crystals import CrystalSpec, SellmeierForm, get_crystal
from .dispersion import (GvmSolution, delta_k, group_index, gvm_pump_wavelength,
                         index_e, index_o, phasematching_angle)
from .interference import (HomScan, SourceSpec, coherence_time, hom_dip,
                           two_source_experiment)
from .jsa import (FilterSpec, FrequencyGrid, JointAmplitude, PumpSpec,
                  apply_filters, build_grid, joint_amplitude, marginal_spectrum,
                  normalize, phasematching_function, pump_envelope)
from .schmidt import (ReducedDensityMatrix, SchmidtResult,
                      heralded_density_matrix, heralding_efficiency, purity,
                      schmidt_decompose)

__all__ = [
    "CrystalSpec", "SellmeierForm", "get_crystal",
    "GvmSolution", "delta_k", "group_index", "gvm_pump_wavelength",
    "index_e", "index_o", "phasematching_angle",
    "HomScan", "SourceSpec", "coherence_time", "hom_dip",
    "two_source_experiment",
    "FilterSpec", "FrequencyGrid", "JointAmplitude", "PumpSpec",
    "apply_filters", "build_grid", "joint_amplitude", "marginal_spectrum",
    "normalize", "phasematching_function", "pump_envelope",
    "ReducedDensityMatrix", "SchmidtResult", "heralded_density_matrix",
    "heralding_efficiency", "purity", "schmidt_decompose",
]
