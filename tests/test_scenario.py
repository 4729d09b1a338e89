import hashlib

import numpy as np
import pytest

from fluctlab import (
    Hamiltonian,
    Scenario,
    ScenarioError,
    preset,
    random_scenario,
    scenario,
    scenario_from_dict,
)
from fluctlab.channels import _PRESET_PARAMS, _SEED
from fluctlab.scenario import parse_channel, parse_matrix
from conftest import mixed_scenario, unital_scenario

NAN, INF = float("nan"), float("inf")
RNG = np.random.default_rng(17)

# regular documents: the one-call conversion takes these
REGULAR = [
    [[1, 2], [3, 4]],
    [[1.5, -0.0], [2**53 + 1, 5e-324]],
    [[[1, 0], [0, -0.0]], [[-0.0, 1], [2, 3]]],
    [[[0.1, 0.2]]],
    [[NAN, INF], [-INF, 1e300]],
    [[[NAN, 1], [INF, -INF]]],
    [[2**63, -2**63], [2**64 - 1, 0]],
    [[True, 1.5]],
    [[]],
] + [RNG.standard_normal(shape).tolist()
     for d in (1, 2, 5, 28) for shape in ((d, d), (d, d, 2))] + [
    RNG.integers(-5, 5, size=(4, 4, 2)).tolist(),
]

# irregular documents: only the per-entry parser reads these
IRREGULAR = [
    [[1, [2, 0]], [[0, 1], 3]],
    [[True, False]],
    [[2**70, 1]],
    [[1, 2], [3]],
    [["1.5"]],
    [[1, "a"]],
    [[None, 1]],
    [[[]]],
    [1, 2],
    [[[1, 2, 3]]],
    [[[[1, 2]]]],
    [[{"a": 1}]],
]


def outcome(doc):
    try:
        a = parse_matrix(doc, "ctx")
    except ScenarioError as exc:
        return "error", str(exc)
    return a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()


@pytest.mark.parametrize("doc", REGULAR + IRREGULAR)
def test_both_paths_give_identical_arrays_and_errors(doc, monkeypatch):
    fast = outcome(doc)
    monkeypatch.setattr(scenario, "_regular_matrix", lambda obj: None)
    assert outcome(doc) == fast


@pytest.mark.parametrize("doc", REGULAR)
def test_regular_documents_take_one_conversion(doc):
    assert scenario._regular_matrix(doc) is not None


@pytest.mark.parametrize("doc", IRREGULAR)
def test_irregular_documents_take_the_entry_loop(doc):
    assert scenario._regular_matrix(doc) is None


@pytest.mark.parametrize("doc", [[["1.5"]], [[1, "2"]], [["1e3", "2"], ["3", "4"]],
                                 [[["1", "0"]]], [[[1, "0"], 0], [0, 1]]])
def test_strings_are_refused(doc):
    with pytest.raises(ScenarioError, match="number or \\[re, im\\] pair"):
        parse_matrix(doc)


@pytest.mark.parametrize("diag", [["1", 0], [[1], 0], 5, None])
def test_diag_takes_a_list_of_numbers(diag):
    with pytest.raises(ScenarioError, match="ctx: 'diag' must be a list of numbers"):
        parse_matrix({"diag": diag}, "ctx")


@pytest.mark.parametrize("doc", [[[10**400]], [[[0, -10**400]]], {"diag": [1, 10**400]}])
def test_integers_beyond_float_range_are_refused(doc):
    with pytest.raises(ScenarioError, match="ctx: entry out of floating-point range"):
        parse_matrix(doc, "ctx")


def test_seeds_keep_their_sizes_and_beta():
    # sha256 of (dim, n_kraus, beta) over the conftest corpora, recorded while
    # each Hamiltonian and the channel took a sub-seed of the scenario seed:
    # since every draw comes from one generator, only the matrices moved
    rows = [(s.dim, s.channel.n_kraus, s.beta)
            for make in (mixed_scenario, unital_scenario) for s in map(make, range(100))]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "4ac6bb007cb2712bba5447447adc5caf0be6fe8942229413e8fdf4e85181eeed")


def scenario_arrays(s):
    return [s.h_initial.matrix, s.h_initial.energies, s.h_initial.eigenvectors,
            s.h_final.matrix, s.h_final.energies, s.h_final.eigenvectors,
            s.channel.stack]


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("seed", [0, 5003, 2**63 - 2])
def test_random_scenario_is_reproducible(seed, unital):
    a, b = (random_scenario(seed, dim_range=(2, 6), n_kraus_range=(1, 6), unital_only=unital)
            for _ in range(2))
    assert (a.dim, a.beta, a.channel.label) == (b.dim, b.beta, b.channel.label)
    assert [m.tobytes() for m in scenario_arrays(a)] == [m.tobytes() for m in scenario_arrays(b)]


def test_unital_scenarios_keep_gamma_one(unital_artifacts):
    assert max(abs(a.report.gamma - 1.0) for _, a in unital_artifacts) <= 1e-10


# seeds beyond 2^53, which a float would round
@pytest.mark.parametrize("name,params", [("unitary", [2**53 + 1]), ("random", [2**63 - 2, 3])])
def test_document_preset_seeds_stay_exact(name, params):
    parsed, built = parse_channel({"preset": name, "params": params}, 3, 0), preset(name, params, 3)
    assert parsed.label == built.label
    assert parsed.stack.tobytes() == built.stack.tobytes()


@pytest.mark.parametrize("name", [n for n, kinds in _PRESET_PARAMS.items()
                                  if kinds[:1] == (_SEED,)])
@pytest.mark.parametrize("seed", [0, 7, 2**53 + 1, 2**63 - 2])
def test_omitted_preset_seed_is_the_scenario_seed(name, seed):
    rest = [min(high, low + 2) for _, low, high, _ in _PRESET_PARAMS[name][1:]]
    omitted, written = (
        scenario_from_dict({"dim": 3, "beta": 1.0, "seed": seed, "h_initial": {"diag": [0, 1, 2]},
                            "h_final": {"diag": [0, 1, 2]},
                            "channel": {"preset": name, "params": params}}).channel
        for params in (rest, [seed] + rest))
    assert omitted.label == written.label
    assert omitted.stack.tobytes() == written.stack.tobytes()


def test_scenarios_hash_and_compare_by_identity():
    h = Hamiltonian.from_matrix(np.diag([0.0, 0.5, 1.0]))
    sc = Scenario(name="s", dim=3, beta=1.0, h_initial=h, h_final=h,
                  channel=preset("dephasing", [0.3], 3))
    assert {sc: 1}[sc] == 1 and sc == sc
    twin = Scenario(name="s", dim=3, beta=1.0, h_initial=h, h_final=h, channel=sc.channel)
    assert twin != sc and len({sc, twin}) == 2
