import csv

import numpy as np
import pytest

import oracle
from conftest import degenerate_scenarios
from fluctlab import (
    DimensionMismatch,
    EnergyDistribution,
    Hamiltonian,
    Scenario,
    SupportMismatch,
    ZeroMass,
    crooks_residual,
    exp_average,
    gibbs_state,
    haar_unitary,
    kl_divergence,
    preset,
    random_channel,
    renormalize_backward,
    scenario_artifacts,
    tpm_distributions,
    validate_channel,
    write_distribution_csv,
)
from fluctlab.distributions import default_bin_tolerance, gamma_of_sum

# frozen against the brute-force TPM enumeration oracle (tests/oracle.py)
P0 = 0.7310585786300049
P1 = 0.26894142136999516
GAMMA_AD = 1.4621171572600098
KL_AD = 0.11094407167172737
KL_FLIP = 0.46211715726000979

H01 = Hamiltonian.from_matrix(np.diag([0.0, 1.0]))
AMP_DAMP = validate_channel([np.diag([1.0, 0.0]), [[0.0, 1.0], [0.0, 0.0]]])
FLIP = validate_channel([np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])


def dists(c, h_i=H01, h_f=H01, beta=1.0):
    """(P_F, unnormalized backward) of channel c between h_i and h_f."""
    return tpm_distributions(c, gibbs_state(h_i, beta), gibbs_state(h_f, beta))


def live_atoms(dist, floor=1e-14):
    return [(float(x), float(m)) for x, m in zip(dist.delta_u, dist.mass) if m > floor]


def assert_atoms(dist, expected, atol=1e-12):
    got = live_atoms(dist)
    assert len(got) == len(expected)
    for (x, m), (ex, em) in zip(got, expected):
        assert abs(x - ex) < atol and abs(m - em) < atol


def make_dist(atoms):
    xs = np.array([a[0] for a in atoms], dtype=float)
    with np.errstate(divide="ignore"):
        log_ms = np.log(np.array([a[1] for a in atoms], dtype=float))
    return EnergyDistribution(delta_u=xs, log_mass=log_ms)


class TestForwardDistribution:
    def test_identity_channel(self):
        pf, _ = dists(preset("identity", [], 2))
        assert_atoms(pf, [(0.0, 1.0)])
        assert abs(pf.total_mass - 1.0) < 1e-14

    def test_full_amplitude_damping(self):
        pf, _ = dists(AMP_DAMP)
        assert_atoms(pf, [(-1.0, P1), (0.0, P0)])

    def test_full_depolarizing(self):
        pf, _ = dists(preset("depolarizing", [1.0], 2))
        assert_atoms(pf, [(-1.0, P1 / 2), (0.0, 0.5), (1.0, P0 / 2)])

    def test_normalized_for_any_channel(self):
        rng = np.random.default_rng(97)
        for k in range(40):
            dim = int(rng.integers(2, 6))
            h_i = Hamiltonian.from_matrix(np.diag(np.sort(rng.random(dim))))
            h_f = Hamiltonian.from_matrix(np.diag(np.sort(rng.random(dim))))
            c = random_channel(dim, int(rng.integers(1, 5)), 9700 + k)
            pf, _ = dists(c, h_i, h_f)
            assert abs(pf.total_mass - 1.0) < 1e-10

    def test_transition_table_columns_sum_to_one(self):
        # a flat final Hamiltonian puts column m of p(n|m) on one atom at
        # -E_m, whose mass is then the initial population times the column sum
        init = gibbs_state(Hamiltonian.from_matrix(np.diag([0.0, 0.3, 0.7, 1.0])), 2.0)
        flat = gibbs_state(Hamiltonian.from_matrix(np.zeros((4, 4))), 2.0)
        pf, _ = tpm_distributions(random_channel(4, 3, 5), init, flat)
        np.testing.assert_allclose(pf.delta_u, [-1.0, -0.7, -0.3, 0.0], atol=1e-12)
        np.testing.assert_allclose(pf.mass[::-1], init.populations, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tpm_distributions(random_channel(3, 2, 1), gibbs_state(H01, 1.0),
                              gibbs_state(H01, 1.0))


class TestBackwardDistribution:
    def test_unitary_forward_gives_unit_mass(self):
        _, pb = dists(FLIP)
        assert abs(pb.total_mass - 1.0) < 1e-12

    def test_full_amplitude_damping(self):
        _, pb = dists(AMP_DAMP)
        assert_atoms(pb, [(-1.0, P0), (0.0, P0)])
        assert abs(pb.total_mass - GAMMA_AD) < 1e-12

    def test_identity_channel(self):
        _, pb = dists(preset("identity", [], 2))
        assert_atoms(pb, [(0.0, 1.0)])

    def test_mass_equals_gamma(self, mixed_artifacts):
        for _, art in mixed_artifacts:
            assert art.report.residuals["backward_mass_vs_gamma"] < 1e-10


class TestGamma:
    def test_unital_channels(self):
        ts = gibbs_state(H01, 1.0)
        for c in (FLIP, preset("dephasing", [0.2], 2), preset("depolarizing", [0.7], 2)):
            assert abs(gamma_of_sum(c.kraus_sum(), ts) - 1.0) < 1e-10

    def test_amplitude_damping(self):
        # sum A A^dag = diag(2, 0); trace against the Gibbs populations
        assert abs(gamma_of_sum(AMP_DAMP.kraus_sum(), gibbs_state(H01, 1.0)) - GAMMA_AD) < 1e-14

    def test_agrees_with_backward_mass(self):
        rng = np.random.default_rng(101)
        for k in range(20):
            dim = int(rng.integers(2, 6))
            h = Hamiltonian.from_matrix(np.diag(np.sort(rng.random(dim))))
            ts = gibbs_state(h, float(rng.uniform(0.2, 5.0)))
            c = random_channel(dim, int(rng.integers(1, 5)), 10100 + k)
            _, pb = tpm_distributions(c, ts, ts)
            assert abs(pb.total_mass - gamma_of_sum(c.kraus_sum(), ts)) < 1e-10


class TestRenormalize:
    def test_unit_mass_unchanged(self):
        p = make_dist([(0.0, 1.0)])
        q = renormalize_backward(p)
        assert_atoms(q, [(0.0, 1.0)])

    def test_amplitude_damping(self):
        _, pb = dists(AMP_DAMP)
        q = renormalize_backward(pb)
        assert_atoms(q, [(-1.0, 0.5), (0.0, 0.5)])
        assert abs(q.total_mass - 1.0) < 1e-12

    def test_single_atom(self):
        q = renormalize_backward(make_dist([(0.0, GAMMA_AD)]))
        assert_atoms(q, [(0.0, 1.0)])

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            renormalize_backward(make_dist([(0.0, 0.0)]))

    def test_mass_is_computed_once_and_read_only(self):
        q = renormalize_backward(make_dist([(0.0, 0.25), (1.0, 0.75)]))
        assert q.mass is q.mass and not q.mass.flags.writeable
        assert q.mass.tobytes() == np.exp(q.log_mass).tobytes()


class TestExpAverage:
    def test_trivial_coefficients(self):
        pf, _ = dists(AMP_DAMP)
        assert abs(exp_average(pf, 0.0, 0.0) - 1.0) < 1e-12

    def test_forward_jarzynski_equals_gamma(self):
        pf, _ = dists(AMP_DAMP)
        assert abs(exp_average(pf, -1.0, 0.0) - GAMMA_AD) < 1e-12

    def test_backward_jarzynski_equals_one(self):
        _, pb = dists(AMP_DAMP)
        assert abs(exp_average(pb, 1.0, 0.0) - 1.0) < 1e-12


class TestCrooks:
    def test_identity_scenario(self):
        ts = gibbs_state(H01, 1.0)
        pf, pb_raw = tpm_distributions(preset("identity", [], 2), ts, ts)
        pb = renormalize_backward(pb_raw)
        assert crooks_residual(pf, pb, 1.0, 0.0, 0.0) < 1e-10

    def test_amplitude_damping_scenario(self):
        ts = gibbs_state(H01, 1.0)
        pf, pb_raw = tpm_distributions(AMP_DAMP, ts, ts)
        pb = renormalize_backward(pb_raw)
        x = -np.log(GAMMA_AD)
        assert crooks_residual(pf, pb, 1.0, 0.0, x) < 1e-10

    def test_random_batch(self, mixed_artifacts):
        for _, art in mixed_artifacts:
            assert art.report.residuals["crooks_max"] < 1e-8

    def test_support_mismatch_raises(self):
        pf = make_dist([(0.0, 1.0)])
        pb = make_dist([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(SupportMismatch):
            crooks_residual(pf, pb, 1.0, 0.0, 0.0)

    def test_one_sided_atom_raises(self):
        pf = make_dist([(0.0, 1.0), (1.0, 0.0)])
        pb = make_dist([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(SupportMismatch,
                           match="DeltaU=1.0 has backward mass without forward support"):
            crooks_residual(pf, pb, 1.0, 0.0, 0.0)

    def test_atoms_absent_on_both_sides_skipped(self):
        pf = make_dist([(0.0, 1.0), (1.0, 0.0)])
        pb = make_dist([(0.0, 1.0), (1.0, 0.0)])
        assert crooks_residual(pf, pb, 1.0, 0.0, 0.0) == 0.0

    def test_requires_normalized_backward(self):
        pf = make_dist([(0.0, 1.0)])
        with pytest.raises(ZeroMass):
            crooks_residual(pf, make_dist([(0.0, GAMMA_AD)]), 1.0, 0.0, 0.0)


class TestKl:
    def test_identical_distributions(self):
        p = make_dist([(-1.0, 0.4), (0.0, 0.6)])
        assert kl_divergence(p, p) == 0.0

    def test_amplitude_damping(self):
        ts = gibbs_state(H01, 1.0)
        pf, pb_raw = tpm_distributions(AMP_DAMP, ts, ts)
        pb = renormalize_backward(pb_raw)
        assert abs(kl_divergence(pf, pb) - KL_AD) < 1e-13

    def test_unitary_flip_matches_relative_entropy(self):
        # closed system: K = beta <W>_diss = S_R(rho' || rho'_eq)
        ts = gibbs_state(H01, 1.0)
        pf, pb_raw = tpm_distributions(FLIP, ts, ts)
        pb = renormalize_backward(pb_raw)
        kl = kl_divergence(pf, pb)
        assert abs(kl - KL_FLIP) < 1e-13
        rho_out = FLIP.apply(ts.state)
        assert abs(kl - oracle.rel_entropy(rho_out, ts.state)) < 1e-10

    def test_forward_mass_without_backward_support(self):
        pf = make_dist([(0.0, 0.5), (1.0, 0.5)])
        pb = make_dist([(0.0, 1.0)])
        with pytest.raises(SupportMismatch):
            kl_divergence(pf, pb)

    def test_forward_mass_on_absent_backward_atom(self):
        pf = make_dist([(0.0, 0.5), (1.0, 0.5)])
        pb = make_dist([(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(SupportMismatch, match="without backward support"):
            kl_divergence(pf, pb)

    def test_nonnegative(self, mixed_artifacts):
        for _, art in mixed_artifacts:
            kl = kl_divergence(art.forward, art.backward)
            assert kl >= -1e-10


class TestSupportsAndBinning:
    def test_supports_coincide_atom_for_atom(self, mixed_artifacts):
        for s, art in mixed_artifacts:
            pf, pb = art.forward, art.backward
            assert pf.n_atoms == pb.n_atoms
            tol = default_bin_tolerance(s.h_initial, s.h_final, s.bin_tol_scale)
            np.testing.assert_allclose(pf.delta_u, pb.delta_u, atol=10 * tol)
            # exact support: an atom has no mass on one side iff on the other
            assert np.array_equal(np.isneginf(pf.log_mass), np.isneginf(pb.log_mass))

    def test_atoms_sorted_and_separated(self, mixed_artifacts):
        for s, art in mixed_artifacts:
            pf = art.forward
            gaps = np.diff(pf.delta_u)
            assert np.all(gaps > default_bin_tolerance(s.h_initial, s.h_final, s.bin_tol_scale))
            assert np.all(pf.mass >= 0.0)

    def test_degenerate_basis_invariance(self):
        # remixing a degenerate eigenvector block must not move any atom
        energies = np.array([0.0, 1.0, 1.0, 2.0])
        base = Hamiltonian.from_matrix(np.diag(energies))
        block = np.eye(4, dtype=complex)
        block[1:3, 1:3] = haar_unitary(2, 31415)
        remixed = Hamiltonian.from_spectrum(energies, block)
        c = random_channel(4, 3, 271828)
        for beta in (0.2, 1.0, 5.0):
            pf_a, _ = dists(c, base, base, beta)
            pf_b, _ = dists(c, remixed, remixed, beta)
            assert pf_a.n_atoms == pf_b.n_atoms
            np.testing.assert_allclose(pf_a.delta_u, pf_b.delta_u, atol=1e-9)
            np.testing.assert_allclose(pf_a.mass, pf_b.mass, atol=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
    @pytest.mark.parametrize("beta", [3e4, 1e6])
    def test_narrow_spectra_keep_distinct_transitions_apart(self, beta):
        # spectra 1.4e-8 and 1.8e-8 wide: every one of the 64 gaps is
        # distinct, but an absolute 1e-9 bin tolerance chains them into a
        # few atoms, whose merged transitions break the Crooks ratio
        k = np.arange(8.0)
        scenario = Scenario(name="narrow", dim=8, beta=beta,
                            h_initial=Hamiltonian.from_matrix(np.diag(k * 2e-9)),
                            h_final=Hamiltonian.from_matrix(np.diag((7 - k) * 2.6e-9)),
                            channel=preset("amplitude_damping", [0.4], 8))
        art = scenario_artifacts(scenario)
        assert art.forward.n_atoms == 64
        assert max(art.report.residuals.values()) < 1e-8


def depolarizing_ladder(dim: int, p: float) -> Scenario:
    """Equally spaced levels under depolarizing noise: bins with many members."""
    h = Hamiltonian.from_matrix(np.diag(np.linspace(0.0, 1.0, dim)))
    return Scenario(name=f"ladder-{dim}", dim=dim, beta=1.0, h_initial=h, h_final=h,
                    channel=preset("depolarizing", [p], dim))


class TestOracleCrossCheck:
    """The vectorised table and binning against the brute-force loops of tests/oracle.py."""

    @pytest.mark.parametrize("scenario", degenerate_scenarios() + [
        depolarizing_ladder(16, 0.3), depolarizing_ladder(20, 0.6)],
        ids=lambda s: s.name)
    def test_atoms_and_kl_match_oracle(self, scenario):
        pf, pb_raw = tpm_distributions(scenario.channel,
                                       gibbs_state(scenario.h_initial, scenario.beta),
                                       gibbs_state(scenario.h_final, scenario.beta))
        args = ([np.asarray(a) for a in scenario.channel.kraus_ops],
                scenario.h_initial.matrix, scenario.h_final.matrix, scenario.beta)
        tol = default_bin_tolerance(scenario.h_initial, scenario.h_final)
        want_f = oracle.forward_atoms(*args, tol=tol)
        want_b = oracle.backward_atoms(*args, tol=tol)
        for got, want in ((pf, want_f), (pb_raw, want_b)):
            assert got.n_atoms == len(want)
            np.testing.assert_allclose(got.delta_u, [x for x, _ in want], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.mass, [w for _, w in want], rtol=0, atol=1e-12)
        kl = kl_divergence(pf, renormalize_backward(pb_raw))
        assert abs(kl - oracle.kl_from_atoms(want_f, want_b, tol=tol)) < 1e-12


# a mass of -0.0 has no logarithm, so masses are non-negative here
EXTREME_ATOMS = list(zip(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3,
     -0.26894142136999516, 2.0**53 + 2, np.nextafter(1.0, 2.0)],
    [5e-324, 2.0**-1022, 1e300, 0.7310585786300049, 1 / 7, 0.0,
     1e-17, 123456789.12345678, 1.0, np.nextafter(0.0, 1.0), 2.5]))


@pytest.mark.parametrize("atoms", [EXTREME_ATOMS, []], ids=["extreme", "empty"])
def test_csv_bytes_match_csv_writer(tmp_path, atoms):
    # the masses written are exp(log_mass), which need not round-trip the
    # inputs to the last digit; the reference formats the same values
    dist = make_dist(atoms)
    path, ref_path = tmp_path / "p.csv", tmp_path / "ref.csv"
    write_distribution_csv(dist, path)
    with open(ref_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["delta_u", "mass"])
        for x, w in zip(dist.delta_u, dist.mass):
            writer.writerow([format(float(x), ".17g"), format(float(w), ".17g")])
    assert path.read_bytes() == ref_path.read_bytes()
    np.testing.assert_allclose(dist.mass, [w for _, w in atoms], rtol=1e-13, atol=0)
