import numpy as np
import pytest

from fluctlab import ScenarioError, scenario
from fluctlab.scenario import parse_matrix

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


@pytest.mark.parametrize("doc", [[["1.5"]], [[1, "2"]], [["1e3", "2"], ["3", "4"]]])
def test_strings_are_refused(doc):
    with pytest.raises(ScenarioError, match="number or \\[re, im\\] pair"):
        parse_matrix(doc)
