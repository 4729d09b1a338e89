import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fluctlab import Hamiltonian, gibbs_state
from fluctlab.channels import _P, _PRESET_PARAMS
from fluctlab.cli import main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
GOLDEN_FILE = os.path.join(SCENARIO_DIR, "amplitude_damping_golden.json")

GOLDEN = {
    "delta_u": -0.26894142136999516,
    "gamma": 1.4621171572600098,
    "x": -0.37988549304172248,
    "kl": 0.11094407167172737,
    "delta_s": -0.2689414213699951,
    "delta_s_v": -0.58220310888821791,
}


def write_scenario(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return str(path)


def base_doc(**overrides):
    doc = {
        "name": "test",
        "dim": 2,
        "beta": 1.0,
        "h_initial": {"diag": [0.0, 1.0]},
        "h_final": {"diag": [0.0, 1.0]},
        "channel": {"preset": "amplitude_damping", "params": [1.0]},
        "seed": 0,
    }
    doc.update(overrides)
    return doc


class TestRun:
    def test_identity_scenario(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", os.path.join(SCENARIO_DIR, "identity.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["gamma"] == 1.0

    def test_golden_scenario(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", GOLDEN_FILE, "--out", str(out), "--quiet"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        for key, value in GOLDEN.items():
            assert abs(doc[key] - value) < 1e-12, key
        assert doc["unital"] is False
        pf_lines = (out / "pf.csv").read_text().splitlines()
        assert pf_lines[0] == "delta_u,mass"
        masses = [float(line.split(",")[1]) for line in pf_lines[1:]]
        assert abs(sum(masses) - 1.0) < 1e-12
        pb_lines = (out / "pb.csv").read_text().splitlines()
        pb_masses = [float(line.split(",")[1]) for line in pb_lines[1:]]
        assert abs(sum(pb_masses) - 1.0) < 1e-12  # pb.csv is renormalized
        assert "overall: PASS" in (out / "summary.txt").read_text()

    def test_malformed_hermitian(self, tmp_path, capsys):
        doc = base_doc(h_initial=[[[0.0, 0.0], [1.0, 0.0]],
                                  [[0.0, 0.0], [0.0, 0.0]]])
        path = write_scenario(tmp_path / "bad.json", doc)
        code = main(["run", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "m^dag" in err

    def test_hamiltonian_beyond_half_the_float_range(self, tmp_path, capsys):
        # (m + m^dag) / 2 would overflow: refused before the sum, with no RuntimeWarning
        doc = base_doc(h_initial={"diag": [1.7e308, 0.0]},
                       channel={"preset": "dephasing", "params": [0.3]})
        path = write_scenario(tmp_path / "huge.json", doc)
        code = main(["run", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "m +/- m^dag would overflow" in err
        assert not (tmp_path / "o").exists()

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "beta": oops\n}')
        code = main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken.json:2:" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"), "--quiet"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_threshold_violation_exits_2(self, tmp_path):
        code = main(["run", GOLDEN_FILE, "--out", str(tmp_path / "o"),
                     "--tol", "1e-18", "--quiet"])
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", GOLDEN_FILE, "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", GOLDEN_FILE, "--out", str(out_b), "--quiet"]) == 0
        for name in ("report.json", "pf.csv", "pb.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestHugeFiniteValues:
    """Valid scenarios whose numbers overflow or underflow a double on the way."""

    def run_quietly(self, doc, tmp_path):
        path = write_scenario(tmp_path / "doc.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        return tmp_path / "o"

    def test_partition_function_beyond_float_range(self, tmp_path):
        # beta * E_min = -1000: Z = exp(1000) overflows, F and the populations do not
        h = {"diag": [-1000.0, 0.0]}
        self.run_quietly({"dim": 2, "beta": 1.0, "h_initial": h, "h_final": h,
                          "channel": {"preset": "identity"}}, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = gibbs_state(Hamiltonian.from_matrix(np.diag([-1000.0, 0.0])), 1.0)
        assert ts.free_energy == -1000.0

    @staticmethod
    def damping_into_upper_level(beta):
        # full damping feeds only |0>, which h_final puts on top: sum A A^dag = diag(2, 0)
        # and gamma = 2 p'_0 = 2/(1 + e^beta)
        with open(GOLDEN_FILE) as fh:
            return dict(json.load(fh), beta=beta, h_final={"diag": [1.0, 0.0]})

    def test_gamma_underflow(self, tmp_path):
        # gamma = 2/(1 + e^800) underflows to 0, while x = -log(gamma)/800 is
        # 1 - log(2)/800 to double precision
        out = self.run_quietly(self.damping_into_upper_level(800.0), tmp_path)
        doc = json.loads((out / "report.json").read_text())
        assert doc["gamma"] == 0.0
        assert abs(doc["x"] - (1.0 - np.log(2.0) / 800.0)) < 1e-15

    def test_gamma_above_underflow_keeps_its_bytes(self, tmp_path):
        # sha256 of the four output files at beta 700, where gamma is still
        # positive, recorded before the log-space fallback for gamma = 0
        out = self.run_quietly(self.damping_into_upper_level(700.0), tmp_path)
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                   for name in ("report.json", "pf.csv", "pb.csv", "summary.txt")]
        assert digests == ["2ec9ae92896a3d1e", "752974fbca717ce9", "a30236185d044212",
                           "55b35133ddb2dd18"]


class TestSweep:
    def test_beta_sweep_keeps_cooling_sign(self, tmp_path):
        out = tmp_path / "o"
        code = main(["sweep", GOLDEN_FILE, "--param", "beta",
                     "--values", "0.1,1,10", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        ds_col = header.index("delta_s")
        ds_values = [float(line.split(",")[ds_col]) for line in lines[1:]]
        assert all(v < 0 for v in ds_values)  # entropy decrease at every beta

    def test_damping_strength_sweep_raises_gamma(self, tmp_path):
        out = tmp_path / "o"
        code = main(["sweep", GOLDEN_FILE, "--param", "channel.p",
                     "--values", "0,0.5,1", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        g_col = header.index("gamma")
        gammas = [float(line.split(",")[g_col]) for line in lines[1:]]
        assert abs(gammas[0] - 1.0) < 1e-12
        assert gammas[0] < gammas[1] < gammas[2]

    # dim 2 is the smallest scenario dim, and every preset builds at it
    @pytest.mark.parametrize("name", [n for n, kinds in _PRESET_PARAMS.items()
                                      if kinds[:1] == (_P,)])
    def test_channel_p_sweeps_every_probability_preset(self, tmp_path, name):
        params = [min(high, low + 2) for _, low, high, _ in _PRESET_PARAMS[name]]
        path = write_scenario(tmp_path / "s.json",
                              base_doc(channel={"preset": name, "params": params}))
        out = tmp_path / "o"
        code = main(["sweep", path, "--param", "channel.p", "--values", "0.2,0.8",
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_empty_values(self, tmp_path, capsys):
        code = main(["sweep", GOLDEN_FILE, "--param", "beta", "--values", "",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "non-empty" in capsys.readouterr().err

    def test_unknown_param(self, tmp_path, capsys):
        code = main(["sweep", GOLDEN_FILE, "--param", "channel.q",
                     "--values", "1,2", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_sweep_p_needs_preset(self, tmp_path, capsys):
        code = main(["sweep", os.path.join(SCENARIO_DIR, "unitary_flip.json"),
                     "--param", "channel.p", "--values", "0.5",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1


class TestBatch:
    def test_mixed_campaign(self, tmp_path):
        out = tmp_path / "o"
        code = main(["batch", os.path.join(SCENARIO_DIR, "batch_mixed.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "batch.csv").read_text().splitlines()
        assert lines[0] == ("seed,dim,unital,gamma,x,kl,delta_u,delta_s,"
                            "max_residual")
        assert len(lines) == 101
        dims = {int(line.split(",")[1]) for line in lines[1:]}
        assert dims <= {2, 3, 4, 5} and len(dims) > 1
        summary = (out / "batch_summary.txt").read_text()
        assert "result: PASS" in summary

    def test_unital_campaign(self, tmp_path):
        out = tmp_path / "o"
        doc = {"count": 25, "dim_range": [2, 4], "n_kraus_range": [1, 3],
               "beta_set": [0.2, 1.0, 5.0], "seed": 99, "unital_only": True}
        path = write_scenario(tmp_path / "spec.json", doc)
        code = main(["batch", path, "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "batch.csv").read_text().splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "true"
            assert abs(float(fields[3]) - 1.0) < 1e-10

    def test_fixed_seed_rerun_byte_identical(self, tmp_path):
        doc = {"count": 1, "dim_range": [2, 5], "n_kraus_range": [1, 4],
               "beta_set": [1.0], "seed": 4242}
        path = write_scenario(tmp_path / "spec.json", doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["batch", path, "--out", str(out_a), "--quiet"]) == 0
        assert main(["batch", path, "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "batch.csv").read_bytes() == (out_b / "batch.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        doc = {"count": 2, "dim_range": [2, 3], "n_kraus_range": [1, 2],
               "beta_set": [1.0], "seed": 1}
        path = write_scenario(tmp_path / "spec.json", doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["batch", path, "--out", str(out_a), "--quiet"]) == 0
        assert main(["batch", path, "--out", str(out_b), "--seed", "2",
                     "--quiet"]) == 0
        assert (out_a / "batch.csv").read_text() != (out_b / "batch.csv").read_text()

    def test_large_beta_campaign(self, tmp_path):
        # thermal populations down to exp(-40) and below: every seed passes
        out = tmp_path / "o"
        doc = {"count": 40, "dim_range": [2, 8], "n_kraus_range": [1, 6],
               "beta_set": [40.0], "seed": 4040}
        path = write_scenario(tmp_path / "spec.json", doc)
        assert main(["batch", path, "--out", str(out), "--quiet"]) == 0
        lines = (out / "batch.csv").read_text().splitlines()
        assert len(lines) == 41
        assert max(float(line.split(",")[-1]) for line in lines[1:]) < 1e-8
        assert "result: PASS" in (out / "batch_summary.txt").read_text()

    # (spec fields, flags): numbers out of range or of the wrong kind, the
    # --seed override included, and a non-bool unital_only
    BAD_SPECS = {
        "beta-huge-int": ({"beta_set": [10**400]}, []),
        "beta-infinite": ({"beta_set": [1.0, float("inf")]}, []),
        "beta-nan": ({"beta_set": [float("nan")]}, []),
        "seed-negative": ({"seed": -4}, []),
        "seed-flag-negative": ({}, ["--seed", "-3"]),
        "seed-string": ({"seed": "12"}, []),
        "count-fractional": ({"count": 2.7}, []),
        "dim-range-fractional": ({"dim_range": [2.9, 3.2]}, []),
        "dim-range-huge": ({"dim_range": [2, 1e300]}, []),
        "n-kraus-range-huge": ({"n_kraus_range": [1, 1e300]}, []),
        "count-huge": ({"count": 1e300}, []),
        "unital-only-string": ({"unital_only": "false"}, []),
    }

    @pytest.mark.parametrize("fields,flags", BAD_SPECS.values(), ids=BAD_SPECS)
    def test_huge_beta_in_spec(self, tmp_path, capsys, fields, flags):
        doc = dict({"count": 1, "dim_range": [2, 3], "beta_set": [1.0], "seed": 5}, **fields)
        path = write_scenario(tmp_path / "spec.json", doc)
        assert main(["batch", path, "--out", str(tmp_path / "o"), "--quiet", *flags]) == 1
        assert capsys.readouterr().err.startswith("error: batch: bad field")
        assert not (tmp_path / "o").exists()

    def test_invalid_spec(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "spec.json", {"count": 0,
                                                       "dim_range": [2, 3],
                                                       "beta_set": [1.0],
                                                       "seed": 5})
        code = main(["batch", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "count" in capsys.readouterr().err


class TestScenarioParsing:
    def test_explicit_kraus_channel(self, tmp_path):
        code = main(["run", os.path.join(SCENARIO_DIR, "unitary_flip.json"),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["unital"] is True
        assert abs(doc["gamma"] - 1.0) < 1e-12

    def test_dense_hermitian_and_seeded_preset(self, tmp_path):
        code = main(["run", os.path.join(SCENARIO_DIR, "random_qutrit.json"),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0

    def test_seed_override_on_run(self, tmp_path):
        src = os.path.join(SCENARIO_DIR, "random_qutrit.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", src, "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", src, "--out", str(out_b), "--seed", "8",
                     "--quiet"]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["seed"] == 7 and b["seed"] == 8
        assert a["gamma"] != b["gamma"]

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        doc = base_doc(h_final={"diag": [0.0, 1.0, 2.0]})
        path = write_scenario(tmp_path / "bad.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_scenario_tolerance_override_drives_exit_code(self, tmp_path):
        doc = base_doc(tolerances={"identity_rtol": 1e-18})
        path = write_scenario(tmp_path / "strict.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        # the --tol flag wins over the scenario override
        assert main(["run", path, "--out", str(tmp_path / "o2"), "--tol", "1e-8",
                     "--quiet"]) == 0

    def test_bin_tol_scale_parses(self, tmp_path):
        doc = base_doc(tolerances={"bin_tol_scale": 10.0})
        path = write_scenario(tmp_path / "scaled.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", GOLDEN_FILE])  # missing --param/--values
        assert err.value.code == 1
        assert "error:" in capsys.readouterr().err


# (command, field, value): scenario-file tolerances on run and sweep, and
# the --tol flag on every command
BAD_TOLERANCES = [
    (command, field, value)
    for command in ("run", "sweep")
    for field in ("identity_rtol", "bin_tol_scale")
    for value in (float("nan"), 0.0, -1.0)
] + [
    (command, "--tol", value)
    for command in ("run", "sweep", "batch")
    for value in ("nan", "-1", "0")
]


@pytest.mark.parametrize("command,field,value", BAD_TOLERANCES)
def test_bad_tolerance_exits_1(tmp_path, capsys, command, field, value):
    if field == "--tol":
        path, flags = GOLDEN_FILE, ["--tol", value]
    else:
        path = write_scenario(tmp_path / "bad.json", base_doc(tolerances={field: value}))
        flags = []
    if command == "sweep":
        flags += ["--param", "beta", "--values", "1"]
    if command == "batch":
        path = os.path.join(SCENARIO_DIR, "batch_unital.json")
    code = main([command, path, "--out", str(tmp_path / "o"), "--quiet"] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and field in err
    assert not (tmp_path / "o").exists()


NAN = float("nan")

# scenario fields that carry a NaN or infinite matrix entry
NON_FINITE_DOCS = {
    "h_initial-diag": dict(h_initial={"diag": [NAN, 1.0]}),
    "h_final-dense": dict(h_final=[[[float("inf"), 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [1.0, 0.0]]]),
    "kraus-nan": dict(channel={"kraus": [[[1.0, 0.0], [0.0, NAN]]]}),
    "kraus-inf": dict(channel={"kraus": [[[[1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [float("-inf"), 0.0]]]]}),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("fields", NON_FINITE_DOCS.values(), ids=NON_FINITE_DOCS)
def test_non_finite_entries_exit_1(tmp_path, capsys, command, fields):
    path = write_scenario(tmp_path / "bad.json", base_doc(**fields))
    flags = ["--param", "beta", "--values", "1"] if command == "sweep" else []
    code = main([command, path, "--out", str(tmp_path / "o"), "--quiet"] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err
    assert not (tmp_path / "o").exists()


# nested far beyond the recursion limit of the json decoder
DEEP_DOCUMENTS = {
    "arrays": "[" * 100000 + "]" * 100000,
    "objects": '{"a": ' * 5000 + "1" + "}" * 5000,
}


@pytest.mark.parametrize("command", ["run", "sweep", "batch"])
@pytest.mark.parametrize("text", DEEP_DOCUMENTS.values(), ids=DEEP_DOCUMENTS)
def test_deeply_nested_document_exits_1(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    flags = ["--param", "beta", "--values", "1"] if command == "sweep" else []
    code = main([command, str(path), "--out", str(tmp_path / "o"), "--quiet"] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "deep.json" in err and "nested too deeply" in err
    assert not (tmp_path / "o").exists()


# numbers outside the float range, numbers written as strings, and seeds,
# dimensions and Kraus counts that are not finite integers in range
OUT_OF_DOMAIN_DOCS = {
    "dense-huge-int": dict(h_final=[[10**400, 0], [0, 1]]),
    "pair-huge-int": dict(h_final=[[[10**400, 0], 0], [0, 1]]),
    "diag-huge-int": dict(h_initial={"diag": [10**400, 1]}),
    "pair-strings": dict(h_final=[[["1", "0"], 0], [0, 1]]),
    "diag-string": dict(h_initial={"diag": ["1", 0]}),
    "bare-string": dict(h_final=[["1.5", 0], [0, 1]]),
    "kraus-pair-string": dict(channel={"kraus": [[[1, 0], [0, ["1", 0]]]]}),
    "beta-huge-int": dict(beta=10**400),
    "beta-string": dict(beta="1.0"),
    "seed-string": dict(seed="7"),
    "dim-fractional": dict(dim=2.7),
    "random-nan-seed": dict(channel={"preset": "random", "params": [NAN, 3]}),
    "random-negative-seed": dict(channel={"preset": "random", "params": [-1, 3]}),
    "random-infinite-n-kraus": dict(channel={"preset": "random", "params": [5, float("inf")]}),
    "random-fractional-n-kraus": dict(channel={"preset": "random", "params": [5, 2.5]}),
    "unitary-nan-seed": dict(channel={"preset": "unitary", "params": [NAN]}),
    "huge-injected-seed": dict(seed=10**400, channel={"preset": "random", "params": [3]}),
    "random-huge-n-kraus": dict(channel={"preset": "random", "params": [5, 1e300]}),
    "dim-huge": dict(dim=1e300),
    "diag-empty": dict(h_initial={"diag": []}),
    "kraus-huge-entry": dict(channel={"kraus": [[[1e300, 0], [0, 1]]]}),
    "kraus-not-a-list": dict(channel={"kraus": 1.5}),
    "preset-not-a-name": dict(channel={"preset": ["random"]}),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("fields", OUT_OF_DOMAIN_DOCS.values(), ids=OUT_OF_DOMAIN_DOCS)
def test_out_of_domain_entries_exit_1(tmp_path, capsys, command, fields):
    path = write_scenario(tmp_path / "bad.json", base_doc(**fields))
    flags = ["--param", "beta", "--values", "1"] if command == "sweep" else []
    code = main([command, path, "--out", str(tmp_path / "o"), "--quiet"] + flags)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


# preset params must be JSON numbers, as matrix entries are
BAD_PARAMS = {
    "string": ["abc"],
    "null": [None],
    "huge-int": [10**400],
    "numeric-string": ["0.5"],
    "not-a-list": 0.5,
    "nan": [NAN],
    "infinite": [float("inf")],
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("params", BAD_PARAMS.values(), ids=BAD_PARAMS)
def test_bad_preset_params_exit_1(tmp_path, capsys, command, params):
    doc = base_doc(channel={"preset": "amplitude_damping", "params": params})
    path = write_scenario(tmp_path / "bad.json", doc)
    flags = ["--param", "beta", "--values", "1"] if command == "sweep" else []
    code = main([command, path, "--out", str(tmp_path / "o"), "--quiet"] + flags)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: channel.params")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,code", [
    ([os.path.join(SCENARIO_DIR, "identity.json")], 0),
    ([os.path.join(SCENARIO_DIR, "no_such_file.json")], 1),
    ([GOLDEN_FILE, "--tol", "1e-300"], 2),
    ([os.path.join(SCENARIO_DIR, "random_qutrit.json"), "--seed", "-1"], 1),
])
def test_module_entry_point_exit_codes(tmp_path, args, code):
    # python -m fluctlab runs __main__.py, which calls cli.entrypoint
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-m", "fluctlab", "run", *args, "--out", str(tmp_path / "o"),
         "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert ("error:" in proc.stderr) == (code == 1)


@pytest.mark.parametrize("dim", [2, 64])
def test_near_trace_preserving_channel_exits_1(tmp_path, capsys, dim):
    # A = sqrt(I + c J) with J all ones: sum A^dag A - I = c J has entries
    # c under TP_TOL, yet moves the trace of |+><+| by c * dim
    c = 0.9e-10
    a = np.eye(dim) + (np.sqrt(1.0 + c * dim) - 1.0) / dim * np.ones((dim, dim))
    h = np.eye(dim) - np.ones((dim, dim)) / dim  # I - |+><+|
    doc = base_doc(dim=dim, beta=30.0, h_initial=h.tolist(), h_final=h.tolist(),
                   channel={"kraus": [a.tolist()]})
    path = write_scenario(tmp_path / "near_tp.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "deviates from identity" in err
    assert not (tmp_path / "o").exists()
