"""Effective-potential solver for periodically perturbed 1D quantum systems.

Pipeline: define the system (model), diagonalize the confining problem
(eigenbasis), build the energy-dependent effective potential (effpot), solve
the self-consistent dispersion relation and count/group its solutions
(spectra), assemble wavefunctions (reconstruct), and cross-check everything
against independent oracles (oracle).
"""

__version__ = "0.1.0"

from mws.errors import (
    BracketError,
    ConfigError,
    EigenSolveError,
    MwsError,
    PoleProximityError,
    SolverError,
    UnsupportedModeError,
)
from mws.model import (
    ChannelEnergy,
    Harmonic,
    SpatialPeriodic,
    SystemSpec,
    TimePeriodic,
    build_spec,
    channel_energies,
    scale_amplitudes,
    to_document,
)
from mws.eigenbasis import (
    EigenBasis,
    green_function,
    matrix_element,
    solve_base_eigenproblem,
    solve_v1_eigenproblem,
)
from mws.effpot import (
    ChannelBases,
    PoleWeightTable,
    apply_effective_potential,
    build_bases,
    build_pole_weight_table,
    build_pole_weight_tables,
    ep_kernel_eval,
    ep_kernel_matrix,
    exact_pole_pair,
    pole_position,
    series_ep_kernel,
    vnn_eval,
)
from mws.spectra import (
    CountReport,
    RealisationEnsemble,
    SpectrumResult,
    appendix_auxiliary_roots,
    appendix_k_shift,
    count_solutions,
    find_roots,
    find_roots_exact,
    group_realisations,
    modified_equation_residual,
    realisation_separation,
    solve_spectrum,
)
from mws.reconstruct import (
    WaveField,
    assemble_wavefunction,
    component_functions,
    pdd,
)
from mws.oracle import (
    OracleReport,
    coupled_matrix_diagonalization,
    polynomial_roots_oracle,
    refined_grid_eigen_oracle,
    run_all_oracles,
    subset_recovery_distance,
)

__all__ = [
    "__version__",
    "BracketError", "ConfigError", "EigenSolveError", "MwsError",
    "PoleProximityError", "SolverError", "UnsupportedModeError",
    "ChannelEnergy", "Harmonic", "SpatialPeriodic", "SystemSpec", "TimePeriodic",
    "build_spec", "channel_energies", "scale_amplitudes", "to_document",
    "EigenBasis", "green_function", "matrix_element",
    "solve_base_eigenproblem", "solve_v1_eigenproblem",
    "ChannelBases", "PoleWeightTable", "apply_effective_potential",
    "build_bases", "build_pole_weight_table", "build_pole_weight_tables",
    "ep_kernel_eval",
    "ep_kernel_matrix", "exact_pole_pair", "pole_position",
    "series_ep_kernel", "vnn_eval",
    "CountReport", "RealisationEnsemble", "SpectrumResult",
    "appendix_auxiliary_roots", "appendix_k_shift", "count_solutions",
    "find_roots", "find_roots_exact", "group_realisations",
    "modified_equation_residual", "realisation_separation", "solve_spectrum",
    "WaveField", "assemble_wavefunction", "component_functions", "pdd",
    "OracleReport", "coupled_matrix_diagonalization", "polynomial_roots_oracle",
    "refined_grid_eigen_oracle", "run_all_oracles", "subset_recovery_distance",
]
