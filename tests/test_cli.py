import json
import os
import subprocess
import sys

import numpy as np
import pytest

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


@pytest.mark.parametrize("args,code", [
    ([os.path.join(SCENARIO_DIR, "identity.json")], 0),
    ([os.path.join(SCENARIO_DIR, "no_such_file.json")], 1),
    ([GOLDEN_FILE, "--tol", "1e-300"], 2),
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
