"""Shared scenario corpora for the module and acceptance tests.

Everything is seeded, so the corpora are identical on every run. Reports
are computed once per session and shared across the criteria that read
them.
"""

from __future__ import annotations

import numpy as np
import pytest

from fluctlab import (
    Hamiltonian,
    Scenario,
    build_report,
    preset,
    random_channel,
    random_hamiltonian,
    random_scenario,
    scenario_artifacts,
)
from kernel_digest import openblas_core


def pytest_report_header(config):
    """The OpenBLAS kernel of this run, so that the log of a check that holds
    on one kernel's rounding names that kernel."""
    return f"openblas core: {openblas_core()}"


MIXED_SEED_BASE = 1000
UNITAL_SEED_BASE = 5000
UNITARY_SEED_BASE = 9000

MIXED_KWARGS = dict(dim_range=(2, 5), n_kraus_range=(1, 6), beta_set=(0.2, 1.0, 5.0))


def mixed_scenario(i: int) -> Scenario:
    return random_scenario(MIXED_SEED_BASE + i, **MIXED_KWARGS)


def unital_scenario(i: int) -> Scenario:
    return random_scenario(UNITAL_SEED_BASE + i, unital_only=True, **MIXED_KWARGS)


def degenerate_scenarios() -> list:
    """Constructed degenerate-gap Hamiltonians crossed with a few channels."""
    h1 = Hamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0, 2.0]))
    h2 = Hamiltonian.from_matrix(np.diag([0.0, 0.5, 0.5, 1.5]))
    channels = [
        random_channel(4, 3, 777),
        preset("amplitude_damping", [0.7], 4),
        preset("depolarizing", [0.3], 4),
    ]
    out = []
    for c in channels:
        for h_i, h_f in [(h1, h1), (h1, h2)]:
            for beta in (0.2, 1.0, 5.0):
                out.append(Scenario(
                    name=f"degenerate-{len(out)}", dim=4, beta=beta,
                    h_initial=h_i, h_final=h_f, channel=c,
                ))
    return out


def unitary_scenarios() -> list:
    """Haar-random unitary channels over varying dimension and temperature."""
    out = []
    betas = (0.2, 1.0, 5.0)
    for i in range(20):
        dim = 2 + i % 4
        seed = UNITARY_SEED_BASE + i
        rng = np.random.default_rng(seed)
        out.append(Scenario(
            name=f"unitary-{i}", dim=dim, beta=betas[i % 3],
            h_initial=random_hamiltonian(dim, int(rng.integers(2**63 - 1))),
            h_final=random_hamiltonian(dim, int(rng.integers(2**63 - 1))),
            channel=preset("unitary", [int(rng.integers(2**63 - 1))], dim),
            seed=seed,
        ))
    return out


@pytest.fixture(scope="session")
def mixed_artifacts():
    """100 mixed (unital and non-unital) random scenarios with their outputs."""
    scenarios = [mixed_scenario(i) for i in range(100)]
    return [(s, scenario_artifacts(s)) for s in scenarios]


@pytest.fixture(scope="session")
def unital_artifacts():
    """100 random unitary-mixture (unital) scenarios with their outputs."""
    scenarios = [unital_scenario(i) for i in range(100)]
    return [(s, scenario_artifacts(s)) for s in scenarios]


@pytest.fixture(scope="session")
def degenerate_artifacts():
    return [(s, scenario_artifacts(s)) for s in degenerate_scenarios()]


@pytest.fixture(scope="session")
def unitary_reports():
    return [(s, build_report(s)) for s in unitary_scenarios()]
