import hashlib
import json

import numpy as np
import pytest

import oracle
from fluctlab import (
    Hamiltonian,
    Scenario,
    build_report,
    gibbs_state,
    internal_energy_change,
    preset,
    random_channel,
    random_hamiltonian,
    random_scenario,
    scenario_artifacts,
    scenario_from_dict,
    validate_channel,
)
from fluctlab import states
from fluctlab.thermo import (
    RESIDUAL_KEYS,
    report_csv_header,
    report_csv_row,
    report_to_json,
)

LADDER = Hamiltonian.from_matrix(np.diag(np.linspace(0.0, 1.0, 24)))

# frozen against the brute-force TPM oracle (tests/oracle.py)
GOLDEN = {
    "delta_u": -0.26894142136999516,
    "delta_u_moment": -0.26894142136999516,
    "delta_f": 0.0,
    "gamma": 1.4621171572600098,
    "x": -0.37988549304172248,
    "kl": 0.11094407167172737,
    "excess_energy": -0.2689414213699951,
    "delta_s": -0.2689414213699951,
    "delta_s_v": -0.58220310888821791,
    "s_r_final": 0.31326168751822281,
}
DU_FLIP = 0.46211715726000974

H01 = Hamiltonian.from_matrix(np.diag([0.0, 1.0]))
AMP_DAMP = validate_channel([np.diag([1.0, 0.0]), [[0.0, 1.0], [0.0, 0.0]]],
                            label="amplitude_damping(p=1)")
FLIP = validate_channel([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])


def golden_scenario(beta=1.0):
    return Scenario(name="golden", dim=2, beta=beta,
                    h_initial=H01, h_final=H01, channel=AMP_DAMP)


class TestInternalEnergyChange:
    def test_identity(self):
        ts = gibbs_state(H01, 1.0)
        rho_out = preset("identity", [], 2).apply(ts.state)
        assert abs(internal_energy_change(rho_out, ts, H01)) < 1e-14

    def test_amplitude_damping(self):
        ts = gibbs_state(H01, 1.0)
        rho_out = AMP_DAMP.apply(ts.state)
        assert abs(internal_energy_change(rho_out, ts, H01) - GOLDEN["delta_u"]) < 1e-14

    def test_unitary_flip(self):
        # population swap: +(p0 - p1)
        ts = gibbs_state(H01, 1.0)
        assert abs(internal_energy_change(FLIP.apply(ts.state), ts, H01) - DU_FLIP) < 1e-14

    def test_matches_first_moment(self, mixed_artifacts):
        for _, art in mixed_artifacts:
            assert art.report.residuals["moment_vs_trace"] < 1e-10


class TestScalarLaws:
    def test_excess_energy_identity_channel(self):
        report = build_report(Scenario(name="id", dim=2, beta=1.0, h_initial=H01,
                                       h_final=H01, channel=preset("identity", [], 2)))
        assert report.excess_energy == 0.0

    def test_excess_energy_golden(self):
        report = build_report(golden_scenario())
        assert abs(report.excess_energy - GOLDEN["excess_energy"]) < 1e-14
        # K/beta + X, which equals delta_u - delta_f
        assert report.excess_energy == report.kl / 1.0 + report.x
        assert abs(report.excess_energy - (GOLDEN["delta_u"] - GOLDEN["delta_f"])) < 1e-8

    def test_entropy_change_golden(self):
        report = build_report(golden_scenario(beta=2.0))
        # K + beta X, which equals beta (delta_u - delta_f)
        assert report.delta_s == report.kl + 2.0 * report.x
        assert abs(report.delta_s - 2.0 * (report.delta_u - report.delta_f)) < 1e-8
        assert abs(build_report(golden_scenario()).delta_s - GOLDEN["delta_s"]) < 1e-14

    def test_unital_excess_nonnegative(self, unital_artifacts):
        for _, art in unital_artifacts:
            assert art.report.excess_energy >= -1e-10
            assert art.report.delta_s >= -1e-10


class TestVonNeumannChange:
    def test_unitary_channel_is_zero(self):
        report = build_report(Scenario(name="flip", dim=2, beta=1.0, h_initial=H01,
                                       h_final=H01, channel=FLIP))
        assert abs(report.delta_s_v) < 1e-10

    def test_amplitude_damping(self):
        value = build_report(golden_scenario()).delta_s_v
        assert abs(value - GOLDEN["delta_s_v"]) < 1e-12
        # identity route: K + beta X - S_R(rho' || rho'_eq)
        via_identity = GOLDEN["kl"] + GOLDEN["x"] - GOLDEN["s_r_final"]
        assert abs(value - via_identity) < 1e-8

    def test_depolarizing_sharp_state_gains_entropy(self):
        # nearly pure thermal state spread out to I/2
        report = build_report(Scenario(name="spread", dim=2, beta=20.0, h_initial=H01,
                                       h_final=H01, channel=preset("depolarizing", [1.0], 2)))
        assert report.delta_s_v > 0.5


class TestBuildReport:
    def test_identity_scenario(self):
        report = build_report(Scenario(name="id", dim=2, beta=1.0, h_initial=H01,
                                       h_final=H01, channel=preset("identity", [], 2)))
        assert report.max_residual() < 1e-10
        assert abs(report.gamma - 1.0) < 1e-12
        for name in ("delta_u", "delta_f", "x", "kl", "excess_energy",
                     "delta_s", "delta_s_v", "s_r_final"):
            assert abs(getattr(report, name)) < 1e-10

    def test_golden_scenario(self):
        report = build_report(golden_scenario())
        for name, expected in GOLDEN.items():
            assert abs(getattr(report, name) - expected) < 1e-12, name
        assert report.max_residual() < 1e-8
        assert report.x < 0.0 and report.delta_s < 0.0  # cooling witness

    def test_gamma_x_definitional(self, mixed_artifacts):
        for scenario, art in mixed_artifacts:
            r = art.report
            assert abs(r.gamma - np.exp(-scenario.beta * r.x)) < 1e-12
            assert abs(r.delta_u - r.delta_u_moment) < 1e-8

    def test_random_nonunital(self):
        scenario = random_scenario(424242, dim_range=(4, 4), n_kraus_range=(3, 3))
        report = build_report(scenario)
        assert report.max_residual() < 1e-8
        assert abs(report.gamma - 1.0) > 1e-3

    def test_closed_system_limit(self):
        ts = gibbs_state(H01, 1.0)
        report = build_report(Scenario(name="flip", dim=2, beta=1.0,
                                       h_initial=H01, h_final=H01, channel=FLIP))
        rho_out = FLIP.apply(ts.state)
        s_r = oracle.rel_entropy(rho_out, ts.state)
        assert abs(report.kl - report.delta_s) < 1e-8  # X = 0
        assert abs(report.kl - s_r) < 1e-8
        assert abs(report.delta_s_v) < 1e-10

    def test_each_state_diagonalised_once(self, monkeypatch):
        # one spectrum of rho_out feeds its density check, S_V and
        # -tr[rho log rho_eq]; the initial Gibbs state's entropies come from
        # its populations, with no spectrum at all
        scenario = random_scenario(606, dim_range=(6, 6), n_kraus_range=(3, 3))
        eigvalsh = states.np.linalg.eigvalsh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(states.np.linalg, "eigvalsh", counted)
        report = build_report(scenario)
        assert calls == [(6, 6)]
        assert report.max_residual() < 1e-8

    LADDER_CASES = {
        # a dense channel on the d = 24 ladder, and with a Haar initial basis
        "random": lambda: (random_channel(24, 5, 24), LADDER),
        "random-haar": lambda: (random_channel(24, 5, 24), random_hamiltonian(24, 24)),
    }

    @staticmethod
    def artifact_digests(channel, h_initial, beta):
        # sha256 prefixes of the report JSON and of each distribution's
        # positions and log masses, with h_final the d = 24 ladder
        art = scenario_artifacts(Scenario(name="ladder", dim=24, beta=beta,
                                          h_initial=h_initial, h_final=LADDER, channel=channel))
        out = [hashlib.sha256(report_to_json(art.report).encode()).hexdigest()[:16]]
        for p in (art.forward, art.backward_raw, art.backward):
            out.append(hashlib.sha256(p.delta_u.tobytes() + p.log_mass.tobytes()).hexdigest()[:16])
        return out

    @pytest.mark.parametrize("beta,digests", [
        (0.2, {"random": ["1cdf415c7121a62d", "4b588c6301cf7355",
                          "67b4633dd103950f", "cbf1e78cb3686caa"],
               "random-haar": ["c38c1d81d01885ba", "a50a0ad27c19d1e6",
                               "c2039e2e6dc3b1ea", "73781f394b214aa1"]}),
        (1.0, {"random": ["b755120b5488fe3c", "20268c36202b44b8",
                          "3cf8118636350cbb", "d2ccd197c241e909"],
               "random-haar": ["e3d3dea19039ec24", "71ec154db098d338",
                               "66873f91d8e10d06", "b4f72b85bbc4081a"]}),
        (5.0, {"random": ["a867e7b8e970d108", "4b3dd507138ed165",
                          "68d6afd110ca05e6", "57cb03ead43104e7"],
               "random-haar": ["f0baff84fb633de8", "ac2511f3d8de59be",
                               "84b70e4998a52587", "3e5b8dcedbbabcd7"]}),
    ])
    def test_ladder_artifacts_keep_their_bytes(self, beta, digests):
        # a dense channel takes the dense route, whose zgemm rounds per BLAS
        # kernel, so these pins hold on one kernel only
        got = {name: self.artifact_digests(*make(), beta)
               for name, make in self.LADDER_CASES.items()}
        assert got == digests

    @pytest.mark.parametrize("beta,digests", [
        (0.2, ["373b99173e480b80", "3aff8c36003a3ed0", "9caed2bf3231e30a", "d98414abf0169853"]),
        (1.0, ["077f6704f64f01ca", "9837320aa2ce3acf", "e3aa9806d6a8c3fd", "5a910cee6b5c9b2b"]),
        (5.0, ["82d43968b7931626", "4421531ebd8f2c15", "a72eb29237e50228", "f3bb3d91c82cd83b"]),
    ])
    def test_entry_ladder_keeps_its_bytes(self, beta, digests):
        # the d = 24 depolarizing ladder (576 monomial operators) on the entry
        # route, which calls no BLAS, so these pins hold on every kernel
        assert self.artifact_digests(preset("depolarizing", [0.3], 24), LADDER, beta) == digests

    def test_depolarizing_edge_keeps_its_bytes(self):
        # the CI smoke run's depolarizing_edge.json: d = 64 with MAX_KRAUS
        # operators on the entry route, which calls no BLAS, so these pins
        # hold on every kernel
        e = [k / 64 for k in range(64)]
        art = scenario_artifacts(scenario_from_dict({
            "name": "depolarizing-edge", "dim": 64, "beta": 1.0, "h_initial": {"diag": e},
            "h_final": {"diag": e}, "channel": {"preset": "depolarizing", "params": [0.3]},
            "seed": 0}))
        got = [hashlib.sha256(report_to_json(art.report).encode()).hexdigest()[:16]]
        for p in (art.forward, art.backward_raw, art.backward):
            got.append(hashlib.sha256(p.delta_u.tobytes() + p.log_mass.tobytes()).hexdigest()[:16])
        assert got == ["59463b04ba11ad5c", "6bae42987d4c541c",
                       "848f949bee9a3449", "dc6dd847c5d62db9"]

    def test_artifacts_distributions_consistent(self):
        art = scenario_artifacts(golden_scenario())
        assert abs(art.forward.total_mass - 1.0) < 1e-12
        assert abs(art.backward_raw.total_mass - art.report.gamma) < 1e-12
        assert abs(art.backward.total_mass - 1.0) < 1e-12


class TestSerialization:
    def test_json_round_trips(self):
        report = build_report(golden_scenario())
        doc = json.loads(report_to_json(report, header={"name": "golden", "dim": 2}))
        assert doc["name"] == "golden"
        assert doc["gamma"] == report.gamma
        assert doc["residual_crooks_max"] == report.residuals["crooks_max"]

    def test_csv_row_matches_header(self):
        report = build_report(golden_scenario())
        header = report_csv_header(extra=("param", "value"))
        row = report_csv_row(report, extra=("beta", "1"))
        assert len(header) == len(row)
        assert header[:2] == ["param", "value"]
        assert header[2] == "delta_u"
        assert float(row[header.index("gamma")]) == report.gamma
        residual_names = [h for h in header if h.startswith("residual_")]
        assert residual_names == sorted(residual_names)

    def test_residual_keys_are_the_report_order(self):
        report = build_report(golden_scenario())
        assert tuple(report.residuals) == RESIDUAL_KEYS
        assert tuple(report.as_dict()["residuals"]) == RESIDUAL_KEYS
