"""Thermodynamic bookkeeping of one open-process scenario.

Assembles the internal-energy change (trace formula and first moment), the
free-energy difference, the non-unitality correction gamma and its energy
counterpart X = -log(gamma)/beta, the forward/backward KL divergence K,
the excess energy K/beta + X, the entropy change K + beta X and the von
Neumann entropy change, with the residual of every identity that ties them
together. Residuals are reported, never asserted; evaluate, the campaign
engine behind every CLI command, holds the one rule that judges them.

Dissipated work and heat are deliberately not reported as separate
numbers: for a map alone only their sum is well defined (unital channels
exchange heat while X stays zero), so the pair (K, X) and the combined
excess energy are what the report carries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .channels import UnitalityCheck, unitality_of_sum
from .distributions import (
    EnergyDistribution,
    _log_total,
    crooks_residual,
    exp_average,
    gamma_of_sum,
    kl_divergence,
    renormalize_backward,
    tpm_distributions,
)
from .errors import DimensionMismatch, FluctLabError, ScenarioError
from .linalg import eigenbasis_diagonal
from .scenario import Scenario
from .states import (
    Hamiltonian,
    ThermalState,
    gibbs_state,
    state_entropies,
)

# In the order a report builds them; files and summaries list them sorted.
RESIDUAL_KEYS = (
    "forward_norm",
    "backward_mass_vs_gamma",
    "jarzynski_forward",
    "jarzynski_backward",
    "crooks_max",
    "eq11",
    "eq16",
    "eq17",
    "helmholtz",
    "moment_vs_trace",
)
UNITAL_GAMMA_TOL = 1e-10  # a unital campaign fails a scenario whose |gamma - 1| exceeds it


@dataclass(frozen=True)
class FluctuationReport:
    """All derived quantities of a scenario plus identity residuals (nats/energy units).

    ``excess_energy`` is K/beta + X, the part of DeltaU beyond the free-energy
    difference, and ``delta_s`` is DeltaS = K + beta X, the microscopic
    entropy-change law. Both are non-negative for unital dynamics (X = 0
    there); non-unital channels can push them negative, cooling being the
    physical example.
    """

    delta_u: float
    delta_u_moment: float
    delta_f: float
    gamma: float
    x: float
    kl: float
    excess_energy: float
    delta_s: float
    delta_s_v: float
    s_r_final: float
    residuals: dict

    def max_residual(self) -> float:
        """The largest residual; NaN if any residual is NaN."""
        return max_or_nan(*self.residuals.values())

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        out["residuals"] = {name: self.residuals[name] for name in RESIDUAL_KEYS}
        return out


def max_or_nan(*values: float) -> float:
    """max(values), NaN if any value is NaN (the builtin max drops a NaN that is not first)."""
    return math.nan if any(v != v for v in values) else max(values)


# the scalar report fields, in declaration order
REPORT_FIELDS = tuple(f.name for f in fields(FluctuationReport) if f.name != "residuals")


def internal_energy_change(rho_out: np.ndarray, init: ThermalState,
                           h_final: Hamiltonian) -> float:
    """DeltaU = tr(H_f rho_out) - tr(H_i rho_eq); matches the P_F first moment."""
    if rho_out.shape != (init.dim, init.dim) or init.dim != h_final.dim:
        raise DimensionMismatch(
            f"output state shape {rho_out.shape}, state dim {init.dim}, final "
            f"Hamiltonian dim {h_final.dim} must agree"
        )
    return float((h_final.matrix @ rho_out).trace().real
                 - (init.hamiltonian.matrix @ init.state).trace().real)


class ScenarioArtifacts(NamedTuple):
    report: FluctuationReport
    forward: EnergyDistribution
    backward_raw: EnergyDistribution
    backward: EnergyDistribution
    unitality: UnitalityCheck


def scenario_artifacts(scenario: Scenario) -> ScenarioArtifacts:
    """Report, the three distributions it was computed from, and the
    channel's unitality check, read from the same sum_l A_l A_l^dag as gamma.

    Residual keys: forward_norm, backward_mass_vs_gamma, jarzynski_forward,
    jarzynski_backward, crooks_max, eq11 (energy decomposition), eq16
    (entropy law against the independently computed beta (DeltaU - DeltaF)),
    eq17 (von Neumann identity against the direct spectral computation),
    helmholtz (DeltaU - DeltaS/beta - DeltaF with the entropy change taken
    along the state route) and moment_vs_trace.
    """
    beta = scenario.beta
    init_eq = gibbs_state(scenario.h_initial, beta)
    final_eq = gibbs_state(scenario.h_final, beta)
    channel = scenario.channel

    pf, pb_raw = tpm_distributions(channel, init_eq, final_eq,
                                   bin_tol_scale=scenario.bin_tol_scale)
    pb = renormalize_backward(pb_raw)

    kraus_sum = channel.kraus_sum()
    gamma = gamma_of_sum(kraus_sum, final_eq)
    if gamma > 0.0:
        x = float(-np.log(gamma) / beta)
    else:  # underflow: log gamma is the log-sum-exp of log <n|sum A A^dag|n> + log p'_n
        k_nn = eigenbasis_diagonal(final_eq.hamiltonian.eigenvectors, kraus_sum)
        x = -_log_total(np.log(k_nn[k_nn > 0.0]) + final_eq.log_populations[k_nn > 0.0]) / beta
    delta_f = final_eq.free_energy - init_eq.free_energy
    kl = kl_divergence(pf, pb)

    rho_out = channel.apply(init_eq.state)
    du_trace = internal_energy_change(rho_out, init_eq, scenario.h_final)
    du_moment = pf.first_moment()

    # Stable at any beta: the entropies read the exact thermal log-populations,
    # never the log of populations that may underflow.
    # For the Gibbs state itself both entropies are -sum p log p, exactly.
    s_v_out, s_neq_out = state_entropies(rho_out, final_eq)
    s_v_in = s_neq_in = float(-(init_eq.populations * init_eq.log_populations).sum())
    s_r_final = s_neq_out - s_v_out
    ds_state = s_neq_out - s_neq_in

    ds = kl + beta * x
    dsv = s_v_out - s_v_in

    residuals = {
        "forward_norm": abs(pf.total_mass - 1.0),
        "backward_mass_vs_gamma": abs(pb_raw.total_mass - gamma),
        "jarzynski_forward": abs(exp_average(pf, -beta, beta * delta_f) - gamma),
        "jarzynski_backward": abs(exp_average(pb_raw, beta, -beta * delta_f) - 1.0),
        "crooks_max": crooks_residual(pf, pb, beta, delta_f, x),
        "eq11": abs(du_trace - kl / beta - x - delta_f),
        "eq16": abs(beta * (du_trace - delta_f) - ds),
        "eq17": abs(dsv - (kl + beta * x - s_r_final)),
        "helmholtz": abs(du_trace - ds_state / beta - delta_f),
        "moment_vs_trace": abs(du_trace - du_moment),
    }
    residuals = {k: float(v) for k, v in residuals.items()}
    report = FluctuationReport(
        delta_u=du_trace,
        delta_u_moment=du_moment,
        delta_f=delta_f,
        gamma=gamma,
        x=x,
        kl=kl,
        excess_energy=kl / beta + x,
        delta_s=ds,
        delta_s_v=dsv,
        s_r_final=s_r_final,
        residuals=residuals,
    )
    return ScenarioArtifacts(report=report, forward=pf, backward_raw=pb_raw, backward=pb,
                             unitality=unitality_of_sum(kraus_sum))


def build_report(scenario: Scenario) -> FluctuationReport:
    """Compute every report quantity and identity residual for a scenario."""
    return scenario_artifacts(scenario).report


def residual_verdicts(report: FluctuationReport, threshold: float) -> dict:
    """Whether each residual is below threshold, by name."""
    return {name: value < threshold for name, value in report.residuals.items()}


def evaluate(scenarios: Iterable[Scenario], threshold: float, unital: bool = False) -> Iterator:
    """The campaign engine: (scenario, artifacts, passed) per scenario, lazily, in order.
    Passed: every residual below threshold and, if unital, |gamma - 1| <= UNITAL_GAMMA_TOL
    (NaN fails). A package error in a report is raised as ScenarioError naming the scenario."""
    for scenario in scenarios:
        try:
            artifacts = scenario_artifacts(scenario)
        except FluctLabError as exc:
            raise ScenarioError(f"scenario {scenario.name} failed: {exc}") from exc
        report = artifacts.report
        yield scenario, artifacts, (all(residual_verdicts(report, threshold).values()) and
                                    (not unital or abs(report.gamma - 1.0) <= UNITAL_GAMMA_TOL))


# ---------------------------------------------------------------------------
# Serialization (17 significant digits, round-trip exact for doubles)
# ---------------------------------------------------------------------------

def fmt(value: float) -> str:
    return format(float(value), ".17g")


def report_to_json(report: FluctuationReport, header: dict | None = None) -> str:
    """Flat JSON document: header strings/ints, report fields, residual_* keys."""
    items = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in (header or {}).items()]
    items += [f'  "{name}": {fmt(getattr(report, name))}' for name in REPORT_FIELDS]
    items += [f'  "residual_{name}": {fmt(report.residuals[name])}'
              for name in sorted(RESIDUAL_KEYS)]
    return "{\n" + ",\n".join(items) + "\n}\n"


def report_csv_header(extra: tuple = ()) -> list:
    return [*extra, *REPORT_FIELDS, *("residual_" + k for k in sorted(RESIDUAL_KEYS))]


def report_csv_row(report: FluctuationReport, extra: tuple = ()) -> list:
    return ([str(v) for v in extra]
            + [fmt(getattr(report, name)) for name in REPORT_FIELDS]
            + [fmt(report.residuals[k]) for k in sorted(RESIDUAL_KEYS)])
