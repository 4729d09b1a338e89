"""Scenario and batch descriptions.

A scenario packages the triple that defines one open-process experiment:
the initial Hamiltonian (whose thermal state at beta is measured first),
the channel, and the final Hamiltonian measured afterwards. Scenarios are
parsed from plain nested dict/list documents (JSON files on disk) in which
complex entries appear as [re, im] pairs and Hamiltonians may use a
``{"diag": [...]}`` shorthand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .channels import (
    _PRESET_PARAMS,
    _SEED,
    MAX_KRAUS,
    KrausChannel,
    _haar_isometries,
    _random_channel,
    _unitary_mixture,
    preset,
    validate_channel,
)
from .errors import ScenarioError
from .states import Hamiltonian

DEFAULT_RESIDUAL_TOL = 1e-8

# batch campaigns: the documented domain (dim <= 64) and a bounded seed count
MAX_DIM = 64
MAX_COUNT = 10**6


@dataclass(frozen=True, eq=False)
class Scenario:
    """One open-process experiment: the Gibbs state of h_initial at beta, the
    channel, and h_final measured afterwards.

    A scenario compares and hashes by identity, as its channel does; compare
    two scenarios by their arrays, the operators for example with
    ``np.array_equal(a.channel.stack, b.channel.stack)``.
    """

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


@dataclass(frozen=True)
class BatchSpec:
    count: int
    dim_range: tuple
    n_kraus_range: tuple
    beta_set: tuple
    seed: int
    unital_only: bool = False

    def scenarios(self) -> Iterator["Scenario"]:
        """The campaign's random_scenario draws, built lazily, one per seed of the spec's rng."""
        seeds = np.random.default_rng(self.seed).integers(0, 2**63 - 1, size=self.count)
        return (random_scenario(int(s), self.dim_range, self.n_kraus_range, self.beta_set,
                                self.unital_only) for s in seeds)


# document numbers: strings are refused even where float() would read them
_NUMBER = (int, float)


def number(value, context: str, integer: bool = False, low=None, high=None,
           positive: bool = False):
    """A number of a scenario or batch document, or ScenarioError naming context.

    value must be a JSON number (bools count as 0 and 1), finite, integral
    where integer is set, within [low, high] where given and > 0 where
    positive is set. Integer fields come back as exact ints, others as floats.
    """
    try:
        x = float(value) if isinstance(value, _NUMBER) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not (math.isfinite(x) and (x.is_integer() or not integer) and (x > 0 or not positive)
            and (low is None or x >= low) and (high is None or x <= high)):
        kind = "an integer" if integer else "a finite number"
        bound = (f" in [{low}, {high}]" if high is not None else f" >= {low}" if low is not None
                 else " > 0" if positive else "")
        raise ScenarioError(f"{context}: expected {kind}{bound}, got {value!r}")
    return int(value) if integer else x


def _numbers(values, context: str, **rule) -> list:
    """Each entry of a list through number, as context[i]."""
    if not isinstance(values, list):
        raise ScenarioError(f"{context}: expected a list of numbers, got {values!r}")
    return [number(v, f"{context}[{i}]", **rule) for i, v in enumerate(values)]


def _parse_complex_entry(entry):
    pair = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (entry, 0)
    if not all(isinstance(v, _NUMBER) for v in pair):
        raise ScenarioError(f"matrix entry must be a number or [re, im] pair, got {entry!r}")
    return complex(float(pair[0]), float(pair[1]))


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
    try:
        return _parse_matrix(obj, context)
    except OverflowError as exc:  # an integer beyond the float range
        raise ScenarioError(f"{context}: entry out of floating-point range: {exc}") from exc


def _parse_matrix(obj, context: str) -> np.ndarray:
    if isinstance(obj, dict):
        if "diag" not in obj:
            raise ScenarioError(f"{context}: expected a 'diag' key, got {sorted(obj)}")
        diag = obj["diag"]
        if not isinstance(diag, list) or not all(isinstance(v, _NUMBER) for v in diag):
            raise ScenarioError(f"{context}: 'diag' must be a list of numbers, got {diag!r}")
        return np.diag([float(v) for v in diag]).astype(complex)
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

    Preset form: {"preset": name, "params": [...]}. A leading seed kind may
    be left out of params (the scenario seed is used); seed and count kinds
    are read as exact ints, the others as floats.
    """
    if not isinstance(obj, dict):
        raise ScenarioError("channel: expected an object with 'preset' or 'kraus'")
    if "kraus" in obj:
        if not isinstance(obj["kraus"], list):
            raise ScenarioError("channel.kraus: expected a list of matrices")
        mats = [parse_matrix(m, context=f"channel.kraus[{i}]")
                for i, m in enumerate(obj["kraus"])]
        return validate_channel(mats, label="explicit")
    if "preset" in obj:
        name = obj["preset"]
        if not isinstance(name, str):
            raise ScenarioError(f"channel.preset: expected a preset name, got {name!r}")
        values = obj.get("params", [])
        if not isinstance(values, list):
            raise ScenarioError(f"channel.params: expected a list of numbers, got {values!r}")
        kinds = _PRESET_PARAMS.get(name, ())
        omitted = kinds[:1] == (_SEED,) and len(values) == len(kinds) - 1
        # values beyond the preset's kinds are floats, refused by its arity check
        integer = [kind[3] for kind in kinds[omitted:]] + [False] * len(values)
        params = [number(v, f"channel.params[{i}]", integer=integer[i])
                  for i, v in enumerate(values)]
        return preset(name, [seed] * omitted + params, dim)
    raise ScenarioError("channel: needs either a 'preset' or a 'kraus' key")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ScenarioError("scenario: 'tolerances' must be an object")

    def sized(label, obj):
        if obj.dim != dim:
            raise ScenarioError(f"scenario: {label} has dimension {obj.dim}, expected dim={dim}")
        return obj

    bad = "scenario: bad scalar field"
    try:
        name = str(doc.get("name", "scenario"))
        dim = number(doc["dim"], f"{bad} dim", integer=True, low=2)
        beta = number(doc["beta"], f"{bad} beta", positive=True)
        seed = number(doc.get("seed", 0), f"{bad} seed", integer=True, low=0)
        identity_rtol = number(tols.get("identity_rtol", DEFAULT_RESIDUAL_TOL),
                               "scenario: tolerances.identity_rtol", positive=True)
        bin_tol_scale = number(tols.get("bin_tol_scale", 1.0),
                               "scenario: tolerances.bin_tol_scale", positive=True)
        h_i, h_f = (sized(key, Hamiltonian.from_matrix(parse_matrix(doc[key], key)))
                    for key in ("h_initial", "h_final"))
        # after the Hamiltonians, whose size bounds the dim a preset is built at
        channel = sized("channel", parse_channel(doc["channel"], dim, seed))
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing required key {exc}") from exc
    # parse_channel takes only an object, so doc["channel"] is the spec
    return Scenario(name=name, dim=dim, beta=beta, h_initial=h_i, h_final=h_f,
                    channel=channel, seed=seed, identity_rtol=identity_rtol,
                    bin_tol_scale=bin_tol_scale, channel_spec=doc["channel"])


def _range(values, context: str, low: int, high: int) -> tuple:
    """[lo, hi] as a pair of ints with low <= lo <= hi <= high."""
    lo_hi = _numbers(values, context, integer=True, low=low, high=high)
    if len(lo_hi) != 2 or lo_hi[0] > lo_hi[1]:
        raise ScenarioError(f"{context}: expected [lo, hi] with lo <= hi, got {values!r}")
    return tuple(lo_hi)


def batch_from_dict(doc: dict) -> BatchSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("batch document must be an object")
    bad = "batch: bad field"
    try:
        count = number(doc["count"], f"{bad} count", integer=True, low=1, high=MAX_COUNT)
        dim_range = _range(doc["dim_range"], f"{bad} dim_range", 2, MAX_DIM)
        n_kraus_range = _range(doc.get("n_kraus_range", [1, 4]), f"{bad} n_kraus_range",
                               1, MAX_KRAUS)
        beta_set = tuple(_numbers(doc["beta_set"], f"{bad} beta_set", positive=True))
        seed = number(doc["seed"], f"{bad} seed", integer=True, low=0)
    except KeyError as exc:
        raise ScenarioError(f"batch: missing required key {exc}") from exc
    if not beta_set:
        raise ScenarioError(f"{bad} beta_set: expected one or more betas")
    unital_only = doc.get("unital_only", False)
    if not isinstance(unital_only, bool):
        raise ScenarioError(f"{bad} unital_only: expected true or false, got {unital_only!r}")
    return BatchSpec(count=count, dim_range=dim_range, n_kraus_range=n_kraus_range,
                     beta_set=beta_set, seed=seed, unital_only=unital_only)


def random_hamiltonian(dim: int, seed: int) -> Hamiltonian:
    """Random Hermitian with eigenvalues uniform in [0, 1] and Haar eigenvectors.

    With the spectral range below 1, beta bounds every thermal exponent
    beta (E - E_min) of the state. The distributions carry exact log masses,
    so underflowing populations break no identity, but rounding leaves a
    floor of about 1e-15 * beta * span on the residuals (span: the sum of
    both spectral ranges), which reaches the 1e-8 tolerance near beta = 1e8
    (ROADMAP item 7).
    """
    return _random_hamiltonians(np.random.default_rng(int(seed)), dim, 1)[0]


def _random_hamiltonians(rng: np.random.Generator, dim: int, count: int) -> list:
    """count random_hamiltonian draws from rng: every spectrum, then one stack of eigenbases."""
    energies = np.sort(rng.random((count, dim)), axis=1)
    vectors = _haar_isometries(rng, (count, dim, dim))
    return [Hamiltonian.from_spectrum(e, v) for e, v in zip(energies, vectors)]


def random_scenario(seed: int, dim_range=(2, 5), n_kraus_range=(1, 4),
                    beta_set=(0.2, 1.0, 5.0), unital_only: bool = False) -> Scenario:
    """Deterministic random scenario: dim, n_kraus, beta, both spectra, both eigenbases
    (one stacked QR) and the channel (one QR) are drawn in turn from one generator."""
    rng = np.random.default_rng(int(seed))
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    n_kraus = int(rng.integers(n_kraus_range[0], n_kraus_range[1] + 1))
    beta = float(beta_set[int(rng.integers(len(beta_set)))])
    h_i, h_f = _random_hamiltonians(rng, dim, 2)
    draw_channel = _unitary_mixture if unital_only else _random_channel
    channel = draw_channel(rng, dim, n_kraus, f"scenario={seed}")
    return Scenario(name=f"random-{seed}", dim=dim, beta=beta, h_initial=h_i, h_final=h_f,
                    channel=channel, seed=int(seed))
