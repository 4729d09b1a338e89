"""Numerical laboratory for energetic fluctuation identities of open
quantum processes on finite-dimensional systems.

Build thermal states and trace-preserving Kraus channels, compute the
forward and backward two-point-measurement energy distributions, and check
the exponential-average (Jarzynski/Crooks-type) identities, the energy
decomposition and the entropy-change law to numerical tolerance.
"""

from .channels import (
    KrausChannel,
    UnitalityCheck,
    haar_isometry,
    haar_unitary,
    preset,
    random_channel,
    unitary_mixture,
    validate_channel,
)
from .distributions import (
    EnergyDistribution,
    crooks_residual,
    exp_average,
    kl_divergence,
    renormalize_backward,
    tpm_distributions,
    write_distribution_csv,
)
from .errors import (
    DimensionMismatch,
    FluctLabError,
    InvalidBeta,
    NonFinite,
    NotDensityMatrix,
    NotHermitian,
    NotSquare,
    NotTracePreserving,
    ParamOutOfRange,
    ScenarioError,
    SupportMismatch,
    UnknownParam,
    UnknownPreset,
    ZeroMass,
)
from .scenario import (
    BatchSpec,
    Scenario,
    batch_from_dict,
    random_hamiltonian,
    random_scenario,
    scenario_from_dict,
)
from .states import (
    Hamiltonian,
    ThermalState,
    gibbs_state,
    state_entropies,
)
from .thermo import (
    FluctuationReport,
    ScenarioArtifacts,
    build_report,
    internal_energy_change,
    scenario_artifacts,
)

__version__ = "0.1.0"
