"""The campaign engine: thermo.evaluate and BatchSpec.scenarios.

Every command (run, sweep, batch) gets its verdicts from evaluate, so the
output digests below pin the engine's rows and pass rule through the CLI.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import os
from collections.abc import Iterator

import numpy as np
import pytest

from fluctlab import ZeroMass, batch_from_dict, random_scenario, scenario_from_dict, thermo
from fluctlab.cli import main
from fluctlab.thermo import UNITAL_GAMMA_TOL, evaluate

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# sha256 prefixes recorded before the commands shared one engine
BATCH_DIGESTS = {
    ("batch_mixed", None): ("fd1abefe2583243c", "8da4b8ae1a607321"),
    ("batch_mixed", "11"): ("5625fc23e30ba3ea", "7e8665dddc6b1f74"),
    ("batch_unital", None): ("a0cb626920767375", "1e92bf928a2ca718"),
    ("batch_unital", "11"): ("2a20b79f25cc9924", "7ac4c560ee55302f"),
}


@pytest.mark.parametrize("spec,seed", BATCH_DIGESTS, ids=lambda v: str(v))
def test_batch_keeps_its_bytes(tmp_path, spec, seed):
    flags = [] if seed is None else ["--seed", seed]
    out = tmp_path / "o"
    path = os.path.join(SCENARIO_DIR, f"{spec}.json")
    assert main(["batch", path, "--out", str(out), "--quiet", *flags]) == 0
    got = (digest(out / "batch.csv"), digest(out / "batch_summary.txt"))
    assert got == BATCH_DIGESTS[spec, seed]


@pytest.mark.parametrize("name,param,values,expected", [
    ("random_qutrit.json", "beta", "0.2,1,5", "11a39b172eaca8a7"),
    ("amplitude_damping_golden.json", "channel.p", "0,0.2,0.5,0.8,1", "4b113ff5a62e95e8"),
])
def test_sweep_keeps_its_bytes(tmp_path, name, param, values, expected):
    out = tmp_path / "o"
    path = os.path.join(SCENARIO_DIR, name)
    assert main(["sweep", path, "--param", param, "--values", values,
                 "--out", str(out), "--quiet"]) == 0
    assert digest(out / "sweep.csv") == expected


def test_outcomes_arrive_in_input_order():
    scenarios = [random_scenario(seed) for seed in (3, 1, 2)]
    outcomes = list(evaluate(scenarios, 1e-8))
    assert all(got is given for (got, _, _), given in zip(outcomes, scenarios, strict=True))
    assert all(passed for _, _, passed in outcomes)
    for scenario, artifacts, _ in outcomes:
        assert artifacts.report == thermo.scenario_artifacts(scenario).report


def test_non_unital_scenario_fails_a_unital_campaign():
    golden = scenario_from_dict(load("amplitude_damping_golden.json"))
    [(_, artifacts, passed)] = evaluate([golden], 1e-8)
    assert passed and artifacts.report.max_residual() < 1e-8
    assert abs(artifacts.report.gamma - 1.0) > UNITAL_GAMMA_TOL
    [(_, _, passed)] = evaluate([golden], 1e-8, unital=True)
    assert not passed


def test_threshold_is_strict():
    golden = scenario_from_dict(load("amplitude_damping_golden.json"))
    worst = thermo.build_report(golden).max_residual()
    assert worst > 0.0
    [(_, _, passed)] = evaluate([golden], worst)
    assert not passed
    [(_, _, passed)] = evaluate([golden], np.nextafter(worst, np.inf))
    assert passed


@pytest.mark.parametrize("field,unital", [("residuals", False), ("gamma", True)])
def test_nan_fails(monkeypatch, field, unital):
    real = thermo.scenario_artifacts

    def with_nan(scenario):
        art = real(scenario)
        value = dict(art.report.residuals, eq16=np.nan) if field == "residuals" else np.nan
        return art._replace(report=dataclasses.replace(art.report, **{field: value}))

    monkeypatch.setattr(thermo, "scenario_artifacts", with_nan)
    [(_, _, passed)] = evaluate([random_scenario(4, unital_only=unital)], 1e-8, unital=unital)
    assert not passed


def test_engine_is_lazy():
    # the first outcome arrives before a later scenario of the input raises
    def scenarios():
        yield random_scenario(5)
        raise RuntimeError("drawn too early")

    outcomes = evaluate(scenarios(), 1e-8)
    assert next(outcomes)[2]
    with pytest.raises(RuntimeError, match="drawn too early"):
        next(outcomes)
    # an unbounded input works too
    first = next(evaluate((random_scenario(s) for s in itertools.count()), 1e-8))
    assert first[0].seed == 0


def test_batch_spec_draws_its_seeds_lazily():
    doc = dict(load("batch_mixed.json"), count=10**6)
    spec = batch_from_dict(doc)
    scenarios = spec.scenarios()
    assert isinstance(scenarios, Iterator)
    seeds = np.random.default_rng(spec.seed).integers(0, 2**63 - 1, size=3)
    for seed, scenario in zip(seeds, scenarios):
        expected = random_scenario(int(seed), dim_range=spec.dim_range,
                                   n_kraus_range=spec.n_kraus_range, beta_set=spec.beta_set)
        assert scenario.seed == int(seed)
        assert scenario.name == expected.name and scenario.beta == expected.beta
        assert np.array_equal(scenario.channel.stack, expected.channel.stack)
        assert np.array_equal(scenario.h_final.matrix, expected.h_final.matrix)


def test_report_error_in_batch_names_the_seed(tmp_path, monkeypatch, capsys):
    spec = batch_from_dict(load("batch_mixed.json"))
    bad_seed = next(itertools.islice(spec.scenarios(), 2, None)).seed
    real = thermo.scenario_artifacts

    def failing(scenario):
        if scenario.seed == bad_seed:
            raise ZeroMass("planted")
        return real(scenario)

    monkeypatch.setattr(thermo, "scenario_artifacts", failing)
    path = os.path.join(SCENARIO_DIR, "batch_mixed.json")
    assert main(["batch", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad_seed) in err and "planted" in err


def test_nan_residual_reaches_every_max_residual(tmp_path, monkeypatch, capsys):
    # eq16 is neither the first residual nor the first scenario: a builtin
    # max would pass over it
    spec = batch_from_dict(load("batch_mixed.json"))
    nan_seed = next(itertools.islice(spec.scenarios(), 2, None)).seed
    real = thermo.scenario_artifacts

    def nan_eq16(report):
        return dataclasses.replace(report, residuals=dict(report.residuals, eq16=np.nan))

    def with_nan(scenario):
        # the batch's third seed and the sweep's middle beta
        art = real(scenario)
        if scenario.seed == nan_seed or (scenario.name == "random-qutrit" and scenario.beta == 1):
            return art._replace(report=nan_eq16(art.report))
        return art

    assert np.isnan(nan_eq16(thermo.build_report(random_scenario(4))).max_residual())
    monkeypatch.setattr(thermo, "scenario_artifacts", with_nan)

    out = tmp_path / "batch"
    assert main(["batch", os.path.join(SCENARIO_DIR, "batch_mixed.json"),
                 "--out", str(out), "--quiet"]) == 2
    with open(out / "batch.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["max_residual"] == "nan" for row in rows] == \
        [int(row["seed"]) == nan_seed for row in rows]
    assert "max_residual: nan\n" in (out / "batch_summary.txt").read_text()

    capsys.readouterr()
    assert main(["sweep", os.path.join(SCENARIO_DIR, "random_qutrit.json"), "--param", "beta",
                 "--values", "0.2,1,5", "--out", str(tmp_path / "sweep")]) == 2
    assert "max residual: nan\n" in capsys.readouterr().out
