"""Scenario and batch descriptions.

A scenario packages the triple that defines one open-process experiment:
the initial Hamiltonian (whose thermal state at beta is measured first),
the channel, and the final Hamiltonian measured afterwards. Scenarios are
parsed from plain nested dict/list documents (JSON files on disk) in which
complex entries appear as [re, im] pairs and Hamiltonians may use a
``{"diag": [...]}`` shorthand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channels import (
    KrausChannel,
    haar_unitary,
    preset,
    random_channel,
    unitary_mixture,
    validate_channel,
)
from .errors import ScenarioError
from .linalg import SpectralDecomposition
from .states import Hamiltonian

DEFAULT_RESIDUAL_TOL = 1e-8

# presets whose first documented parameter is a seed that scenario files
# may omit (the scenario's own seed is injected)
_SEEDED_PRESETS = {"unitary": 1, "random": 2}


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    beta: float
    h_initial: Hamiltonian
    h_final: Hamiltonian
    channel: KrausChannel
    seed: int = 0
    identity_rtol: float = DEFAULT_RESIDUAL_TOL
    bin_tol_scale: float = 1.0
    channel_spec: Optional[dict] = None

    def with_beta(self, beta: float) -> "Scenario":
        return replace(self, beta=float(beta))


@dataclass(frozen=True)
class BatchSpec:
    count: int
    dim_range: tuple
    n_kraus_range: tuple
    beta_set: tuple
    seed: int
    unital_only: bool = False


def _parse_complex_entry(entry):
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(float(entry[0]), float(entry[1]))
    raise ScenarioError(f"matrix entry must be a number or [re, im] pair, got {entry!r}")


def _regular_matrix(obj) -> Optional[np.ndarray]:
    """obj as a complex matrix if it is a regular array of numbers or of [re, im]
    pairs, in one conversion; else None, leaving obj and every error message
    to the per-entry parser."""
    try:
        a = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    # strings, bools, None and big integers give other dtype kinds
    if a.dtype.kind not in "iuf":
        return None
    if a.ndim == 2:
        return a.astype(complex)
    if a.ndim == 3 and a.shape[2] == 2:
        # each C-ordered (re, im) float pair is one complex128
        return np.ascontiguousarray(a, dtype=float).view(complex).reshape(a.shape[:2])
    return None


def parse_matrix(obj, context: str = "matrix") -> np.ndarray:
    """Dense matrix from nested [re, im] rows or a {"diag": [...]} shorthand."""
    if isinstance(obj, dict):
        if "diag" not in obj:
            raise ScenarioError(f"{context}: expected a 'diag' key, got {sorted(obj)}")
        return np.diag([float(v) for v in obj["diag"]]).astype(complex)
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{context}: expected a non-empty nested array")
    regular = _regular_matrix(obj)
    if regular is not None:
        return regular
    try:
        rows = [[_parse_complex_entry(e) for e in row] for row in obj]
    except TypeError as exc:
        raise ScenarioError(f"{context}: malformed row structure") from exc
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ScenarioError(f"{context}: rows have differing lengths {sorted(lengths)}")
    return np.array(rows, dtype=complex)


def parse_channel(obj, dim: int, seed: int) -> KrausChannel:
    """Channel from a preset spec or an explicit Kraus list.

    Preset form: {"preset": name, "params": [...]}. For the seeded presets
    (unitary, random) the leading seed parameter may be omitted, in which
    case the scenario seed is used.
    """
    if not isinstance(obj, dict):
        raise ScenarioError("channel: expected an object with 'preset' or 'kraus'")
    if "kraus" in obj:
        mats = [parse_matrix(m, context=f"channel.kraus[{i}]")
                for i, m in enumerate(obj["kraus"])]
        return validate_channel(mats, label="explicit")
    if "preset" in obj:
        name = obj["preset"]
        params = [float(v) for v in obj.get("params", [])]
        want = _SEEDED_PRESETS.get(name)
        if want is not None and len(params) == want - 1:
            params = [float(seed)] + params
        return preset(name, params, dim)
    raise ScenarioError("channel: needs either a 'preset' or a 'kraus' key")


def positive_tolerance(value, name: str) -> float:
    """value as a float; ScenarioError naming it unless it is finite and > 0."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = np.nan
    if not np.isfinite(tol) or tol <= 0:
        raise ScenarioError(f"{name} must be a finite number > 0, got {value!r}")
    return tol


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    try:
        name = str(doc.get("name", "scenario"))
        dim = int(doc["dim"])
        beta = float(doc["beta"])
        seed = int(doc.get("seed", 0))
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"scenario: bad scalar field: {exc}") from exc
    if dim < 2:
        raise ScenarioError(f"scenario: dim must be >= 2, got {dim}")

    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ScenarioError("scenario: 'tolerances' must be an object")
    identity_rtol = positive_tolerance(tols.get("identity_rtol", DEFAULT_RESIDUAL_TOL),
                                       "scenario: tolerances.identity_rtol")
    bin_tol_scale = positive_tolerance(tols.get("bin_tol_scale", 1.0),
                                       "scenario: tolerances.bin_tol_scale")

    try:
        h_i = Hamiltonian.from_matrix(parse_matrix(doc["h_initial"], "h_initial"))
        h_f = Hamiltonian.from_matrix(parse_matrix(doc["h_final"], "h_final"))
        channel = parse_channel(doc["channel"], dim, seed)
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing required key {exc}") from exc

    for label, obj in (("h_initial", h_i), ("h_final", h_f), ("channel", channel)):
        if obj.dim != dim:
            raise ScenarioError(
                f"scenario: {label} has dimension {obj.dim}, expected dim={dim}"
            )
    return Scenario(
        name=name, dim=dim, beta=beta, h_initial=h_i, h_final=h_f,
        channel=channel, seed=seed, identity_rtol=identity_rtol,
        bin_tol_scale=bin_tol_scale,
        channel_spec=doc["channel"] if isinstance(doc["channel"], dict) else None,
    )


def batch_from_dict(doc: dict) -> BatchSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("batch document must be an object")
    try:
        count = int(doc["count"])
        dim_range = tuple(int(v) for v in doc["dim_range"])
        n_kraus_range = tuple(int(v) for v in doc.get("n_kraus_range", [1, 4]))
        beta_set = tuple(float(v) for v in doc["beta_set"])
        seed = int(doc["seed"])
        unital_only = bool(doc.get("unital_only", False))
    except KeyError as exc:
        raise ScenarioError(f"batch: missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"batch: bad field: {exc}") from exc
    if count < 1:
        raise ScenarioError(f"batch: count must be >= 1, got {count}")
    for label, rng in (("dim_range", dim_range), ("n_kraus_range", n_kraus_range)):
        if len(rng) != 2 or rng[0] > rng[1] or rng[0] < 1:
            raise ScenarioError(f"batch: {label} must be [lo, hi] with 1 <= lo <= hi")
    if dim_range[0] < 2:
        raise ScenarioError("batch: dimensions below 2 are not meaningful")
    if not beta_set or any(b <= 0 for b in beta_set):
        raise ScenarioError("batch: beta_set must be non-empty and positive")
    return BatchSpec(count=count, dim_range=dim_range, n_kraus_range=n_kraus_range,
                     beta_set=beta_set, seed=seed, unital_only=unital_only)


def random_hamiltonian(dim: int, seed: int) -> Hamiltonian:
    """Random Hermitian with eigenvalues uniform in [0, 1] and Haar eigenvectors.

    Keeping the spectral range bounded keeps every thermal weight of the
    batch corpus (beta up to 5) far above the absent/present mass
    thresholds of the distribution comparisons.
    """
    rng = np.random.default_rng(int(seed))
    energies = np.sort(rng.random(dim))
    vectors = haar_unitary(dim, int(rng.integers(0, 2**63 - 1)))
    return Hamiltonian.from_spectrum(
        SpectralDecomposition(eigenvalues=energies, eigenvectors=vectors)
    )


def random_scenario(seed: int, dim_range=(2, 5), n_kraus_range=(1, 4),
                    beta_set=(0.2, 1.0, 5.0), unital_only: bool = False) -> Scenario:
    """Deterministic random scenario; everything derives from the one seed."""
    rng = np.random.default_rng(int(seed))
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    n_kraus = int(rng.integers(n_kraus_range[0], n_kraus_range[1] + 1))
    beta = float(beta_set[int(rng.integers(len(beta_set)))])
    h_seed_i = int(rng.integers(0, 2**63 - 1))
    h_seed_f = int(rng.integers(0, 2**63 - 1))
    c_seed = int(rng.integers(0, 2**63 - 1))
    if unital_only:
        channel = unitary_mixture(dim, n_kraus, c_seed)
    else:
        channel = random_channel(dim, n_kraus, c_seed)
    return Scenario(
        name=f"random-{seed}",
        dim=dim,
        beta=beta,
        h_initial=random_hamiltonian(dim, h_seed_i),
        h_final=random_hamiltonian(dim, h_seed_f),
        channel=channel,
        seed=int(seed),
    )
