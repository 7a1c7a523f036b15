"""Performance toolkit for a spin-photon quantum repeater chain.

Analytic rate and fidelity models, a discrete-event Monte Carlo simulator of
the nested protocol, and a small exact quantum oracle for desk-scale
validation of the analytic approximations.
"""

from .params import (ConfigError, LinkParams, ParameterSet, PhysicalParams,
                     ValidationReport, default_parameters, fwhm_to_sigma,
                     load_config, serialize, validate)
from .rates import (RateResult, branching_ratio, direct_transmission_rate,
                    link_success_probability, mean_time_parallel,
                    mean_time_sequential, mean_time_two_plus_two,
                    swap_success_probability, transmission_probability)
from .fidelity import (FidelityBudget, GateResult, ReadoutResult,
                       SplittingResult, barrett_kok_fidelity,
                       entanglement_fidelity, fidelity_budget,
                       fidelity_contour, gate_fidelity,
                       nuclear_init_fidelity, overall_fidelity,
                       purcell_at_detuning, quadrupolar_factor,
                       readout_fidelity, transfer_fidelity, zeeman_splittings)
from .qsim import (DensityMatrix, PureState, TransferParams, apply_cz,
                   bell_fidelity, build_flipflop_hamiltonian,
                   chain_fidelity_oracle, evolve_transfer, full_space_oracle)
from .mcsim import (ComparisonReport, ProtocolConfig, TimingStats,
                    compare_with_analytic, simulate_chain,
                    storage_time_histogram)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
