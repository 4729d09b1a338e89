"""Every identity at large beta, where the thermal populations underflow.

The TPM distributions carry log masses and read their support from the
transition table, so no atom is lost to underflow on one side only and no
residual degrades as beta grows.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import (
    Hamiltonian,
    Scenario,
    build_report,
    gibbs_state,
    preset,
    random_scenario,
    renormalize_backward,
    tpm_distributions,
)
from conftest import degenerate_scenarios

TOL = 1e-8


def residuals_without_warnings(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = build_report(scenario)
    # a NaN residual could slip past max() < TOL
    assert all(np.isfinite(v) for v in report.residuals.values())
    return report.residuals


def test_random_qudit_at_beta_40():
    scenario = random_scenario(3, dim_range=(4, 4), n_kraus_range=(2, 2)).with_beta(40)
    residuals = residuals_without_warnings(scenario)
    assert max(residuals.values()) < TOL, residuals


@pytest.mark.parametrize("beta", [30.0, 50.0, 300.0, 1000.0])
def test_readme_cooling_scenario(beta):
    h = Hamiltonian.from_matrix(np.diag([0.0, 1.0]))
    scenario = Scenario(name="cooling", dim=2, beta=beta, h_initial=h, h_final=h,
                        channel=preset("amplitude_damping", [1.0], 2))
    residuals = residuals_without_warnings(scenario)
    assert max(residuals.values()) < TOL, residuals


@pytest.mark.parametrize("scenario", degenerate_scenarios(), ids=lambda s: s.name)
def test_degenerate_bins_at_beta_800(scenario):
    # bins with several members whose linear masses are all subnormal or zero
    scenario = scenario.with_beta(800.0)
    pf, pb_raw = tpm_distributions(scenario.channel,
                                   gibbs_state(scenario.h_initial, scenario.beta),
                                   gibbs_state(scenario.h_final, scenario.beta))
    gaps = np.subtract.outer(scenario.h_final.energies, scenario.h_initial.energies)
    for p in (pf, pb_raw):
        assert np.all(np.isfinite(p.delta_u))
        assert np.abs(np.subtract.outer(p.delta_u, gaps.ravel())).min(axis=1).max() < 1e-12
    assert np.array_equal(np.isneginf(pf.log_mass), np.isneginf(pb_raw.log_mass))
    assert abs(renormalize_backward(pb_raw).total_mass - 1.0) < 1e-12
    residuals = residuals_without_warnings(scenario)
    assert max(residuals.values()) < TOL, residuals


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    n_kraus=st.integers(1, 6),
    unital=st.booleans(),
    log10_beta_span=st.floats(-3.0, 3.0),
)
def test_identities_hold_for_any_beta(seed, dim, n_kraus, unital, log10_beta_span):
    # beta * spectral_range over [1e-3, 1e3]: the wider of the two spectra
    # sets the scale, so every thermal exponent stays within 1e3
    scenario = random_scenario(seed, dim_range=(dim, dim), n_kraus_range=(n_kraus, n_kraus),
                               unital_only=unital)
    span = max(scenario.h_initial.spectral_range(), scenario.h_final.spectral_range())
    scenario = scenario.with_beta(10.0**log10_beta_span / span)
    residuals = residuals_without_warnings(scenario)
    assert max(residuals.values()) < TOL, residuals
