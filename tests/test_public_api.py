"""The package's public surface: every exported name sits on a computed path."""

import dataclasses
import importlib
import os
import re
import types

import numpy as np
import pytest

import fluctlab
from fluctlab import Hamiltonian, gibbs_state, preset, tpm_distributions

PUBLIC = [
    "BatchSpec", "DimensionMismatch", "EnergyDistribution", "FluctLabError",
    "FluctuationReport", "Hamiltonian", "InvalidBeta", "KrausChannel", "NonFinite",
    "NotDensityMatrix", "NotHermitian", "NotSquare", "NotTracePreserving",
    "ParamOutOfRange", "Scenario", "ScenarioArtifacts", "ScenarioError",
    "SupportMismatch", "ThermalState", "UnitalityCheck", "UnknownParam",
    "UnknownPreset", "ZeroMass", "batch_from_dict", "build_report", "crooks_residual",
    "exp_average", "gibbs_state", "haar_isometry", "haar_unitary",
    "internal_energy_change", "kl_divergence", "preset", "random_channel",
    "random_hamiltonian", "random_scenario", "renormalize_backward",
    "scenario_artifacts", "scenario_from_dict", "state_entropies", "tpm_distributions",
    "unitary_mixture", "validate_channel", "write_distribution_csv",
]

# names, under their defining module, that sat on no computed path and were removed
REMOVED = [
    "states.relative_entropy",
    "states.von_neumann_entropy",
    "states.nonequilibrium_entropy",
    "states.check_density_matrix",
    "errors.SupportViolation",
    "distributions.gamma_of",
    "channels.is_unital",
    "thermo.entropy_change",
    "thermo.excess_energy",
    "linalg.SpectralDecomposition",
    "states.ThermalState.partition_function",
    "distributions.EnergyDistribution.bin_tolerance",
    "scenario.Scenario.with_beta",
    "linalg.hermitian_eig",
]

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_public_names():
    names = sorted(n for n in dir(fluctlab) if not n.startswith("_")
                   and not isinstance(getattr(fluctlab, n), types.ModuleType))
    assert names == PUBLIC


@pytest.mark.parametrize("path", REMOVED)
def test_removed_name_is_gone(path):
    module, *owners, name = path.split(".")
    owner = importlib.import_module(f"fluctlab.{module}")
    for attr in owners:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):  # a field without a default is no class attribute
        assert name not in {f.name for f in dataclasses.fields(owner)}
    assert not hasattr(fluctlab, name)
    if name != "excess_energy":  # still the name of a report field
        with open(README) as fh:
            assert not re.search(rf"\b{name}\b", fh.read())


def identity_holders(name: str) -> tuple:
    """(one, a twin built alike) of a class whose fields hold arrays."""
    h, twin = (Hamiltonian.from_matrix(np.diag([0.0, 1.0])) for _ in range(2))
    if name == "Hamiltonian":
        return h, twin
    if name == "ThermalState":
        return gibbs_state(h, 1.0), gibbs_state(h, 1.0)
    return tpm_distributions(preset("dephasing", [0.3], 2), gibbs_state(h, 1.0),
                             gibbs_state(twin, 1.0))


@pytest.mark.parametrize("name", ["Hamiltonian", "ThermalState", "EnergyDistribution"])
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ over arrays raised ValueError, and __hash__ TypeError
    one, twin = identity_holders(name)
    assert type(one).__name__ == name
    assert one == one and one != twin and len({one, one, twin}) == 2
