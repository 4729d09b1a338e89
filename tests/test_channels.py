import hashlib
import itertools
import os
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fluctlab import (
    DimensionMismatch,
    Hamiltonian,
    KrausChannel,
    NotSquare,
    NotTracePreserving,
    ParamOutOfRange,
    UnknownPreset,
    build_report,
    exp_average,
    gibbs_state,
    haar_isometry,
    haar_unitary,
    preset,
    random_channel,
    random_hamiltonian,
    scenario_from_dict,
    tpm_distributions,
    unitary_mixture,
    validate_channel,
)
from fluctlab import channels, cli
from fluctlab.channels import _tp_sum, unitality_of_sum

AMP_DAMP_OPS = [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
                np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
DEPHASE_OPS = [np.sqrt(0.5) * np.eye(2, dtype=complex),
               np.sqrt(0.5) * np.diag([1.0, -1.0]).astype(complex)]

# the presets built from their entries, each with its monomial form
MONOMIAL_PRESETS = ("identity", "dephasing", "depolarizing", "amplitude_damping",
                    "thermal_attenuator")


def ladder(dim, top=1.0):
    return Hamiltonian.from_matrix(np.diag(np.linspace(0.0, top, dim)))


class TestValidateChannel:
    def test_single_unitary(self):
        c = validate_channel([haar_unitary(3, 1)])
        assert c.dim == 3 and c.n_kraus == 1

    def test_full_amplitude_damping(self):
        # direct 2x2 sum: A0^dag A0 + A1^dag A1 = diag(1,0) + diag(0,1) = I
        c = validate_channel(AMP_DAMP_OPS)
        assert c.dim == 2

    def test_not_trace_preserving(self):
        with pytest.raises(NotTracePreserving) as err:
            validate_channel([np.diag([0.5, 0.5])])
        assert "7.500e-01" in str(err.value)  # reported max-abs deviation

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            validate_channel([np.eye(2), np.eye(3)])

    def test_empty(self):
        with pytest.raises(DimensionMismatch):
            validate_channel([])


class TestIsUnital:
    def test_unitary_channel(self):
        check = unitality_of_sum(validate_channel([haar_unitary(4, 2)]).kraus_sum())
        assert check.unital and check.deviation < 1e-12

    def test_dephasing(self):
        # Pauli ops are unitary, so the weighted sum is the identity
        assert unitality_of_sum(validate_channel(DEPHASE_OPS).kraus_sum()).unital

    def test_amplitude_damping(self):
        check = unitality_of_sum(validate_channel(AMP_DAMP_OPS).kraus_sum())
        assert not check.unital
        # sum A A^dag = diag(2, 0), max-abs deviation from identity is 1
        assert abs(check.deviation - 1.0) < 1e-14


class TestApply:
    def test_identity_channel(self):
        rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
        out = preset("identity", [], 2).apply(rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_full_damping_reaches_ground(self):
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        out = validate_channel(AMP_DAMP_OPS).apply(rho)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_dephasing_kills_coherences(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = validate_channel(DEPHASE_OPS).apply(rho)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            preset("identity", [], 2).apply(np.eye(3) / 3.0)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(61)
        for k in range(100):
            dim = int(rng.integers(2, 6))
            c = random_channel(dim, int(rng.integers(1, 5)), 6100 + k)
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            out = c.apply(rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-10


class TestStackedSums:
    """The blocked Kraus sums against per-operator loops, bit for bit.

    Kraus counts 1, 63, 64, 65 and 576 put the last operator before, on
    and after a KRAUS_BLOCK (64) boundary, and run through nine blocks.
    Each runs in Haar eigenbases and in energy bases (diagonal Hamiltonians).
    """

    CHANNELS = {
        1: lambda: random_channel(3, 1, 41),
        63: lambda: random_channel(3, 63, 42),
        64: lambda: random_channel(3, 64, 43),
        65: lambda: random_channel(3, 65, 44),
        576: lambda: preset("depolarizing", [0.3], 24),
    }

    @staticmethod
    def loop_sum(ops, term):
        total = np.zeros(ops[0].shape)
        for a in ops:
            total = total + term(a)
        return total

    @pytest.mark.parametrize("n_kraus", sorted(CHANNELS))
    def test_sums_match_operator_loop(self, n_kraus):
        c = self.CHANNELS[n_kraus]()
        assert c.n_kraus == n_kraus
        self.check_against_loops(c, random_hamiltonian(c.dim, 7), random_hamiltonian(c.dim, 8))

    @pytest.mark.parametrize("n_kraus", sorted(CHANNELS))
    def test_energy_basis_matches_operator_loop(self, n_kraus):
        # diagonal Hamiltonians in shuffled order: the random channels take the
        # dense route through 0/1 eigenbases and a real diagonal Gibbs state,
        # exact products, and the depolarizing one the entry route
        c = self.CHANNELS[n_kraus]()
        rng = np.random.default_rng(n_kraus)
        h_i, h_f = (Hamiltonian.from_matrix(np.diag(rng.random(c.dim))) for _ in range(2))
        assert h_i.permutation is not None and h_f.permutation is not None
        rho = gibbs_state(h_i, 1.0).state
        assert np.count_nonzero(rho) == c.dim and not rho.imag.any()
        self.check_against_loops(c, h_i, h_f)

    @pytest.mark.parametrize("diagonal_side", ["initial", "final"])
    @pytest.mark.parametrize("n_kraus", sorted(CHANNELS))
    def test_one_energy_basis_matches_operator_loop(self, n_kraus, diagonal_side):
        # one shuffled diagonal Hamiltonian and one Haar basis: every table
        # takes the dense route, its product with the 0/1 side exact
        c = self.CHANNELS[n_kraus]()
        diagonal = Hamiltonian.from_matrix(np.diag(np.random.default_rng(n_kraus).random(c.dim)))
        dense = random_hamiltonian(c.dim, 9)
        h_i, h_f = (diagonal, dense) if diagonal_side == "initial" else (dense, diagonal)
        assert h_i.permutation is not None or h_f.permutation is not None
        assert h_i.permutation is None or h_f.permutation is None
        self.check_against_loops(c, h_i, h_f)

    def test_complex_diagonal_state_keeps_the_product(self):
        # only a real diagonal is an energy-basis state: a complex one takes
        # the dense route and gives the product's bits
        c = random_channel(5, 3, 1)
        p = np.arange(1.0, 6.0) / 15.0
        rho = np.diag(p * np.exp(-3j * np.linspace(0.0, 1.0, 5)))
        ops = c.kraus_ops
        assert np.array_equal(c.apply(rho), self.loop_sum(ops, lambda a: a @ rho @ a.conj().T))

    def check_against_loops(self, c, h_initial, h_final):
        ops = c.kraus_ops
        init = gibbs_state(h_initial, 1.0)
        final = gibbs_state(h_final, 1.0)
        rho = init.state

        apply_term, kraus_term = (lambda a: a @ rho @ a.conj().T), (lambda a: a @ a.conj().T)
        if c.monomial is not None:
            # where the entry route runs, the loops take its stated arithmetic
            # per operator: a BLAS kernel that fuses a complex product's two
            # real products leaves other residues near 1e-20 on the diagonal
            kraus_term = self.entry_kraus_term
            if np.array_equal(rho, np.diag(np.diagonal(rho).real)):
                apply_term = partial(self.entry_apply_term, np.diagonal(rho).real)
        assert np.array_equal(c.apply(rho), self.loop_sum(ops, apply_term))
        assert np.array_equal(c.kraus_sum(), self.loop_sum(ops, kraus_term))
        assert np.array_equal(_tp_sum(c.stack), self.loop_sum(ops, lambda a: a.conj().T @ a))
        self.check_table_against_loop(c, init, final)

    @staticmethod
    def entry_apply_term(r, a):
        """diag(a diag(r) a^dag) for a monomial operator a: each row's entry
        times r at its column, then times its conjugate, with each part
        rounded as two separate real products."""
        br, bi = a.real * r, a.imag * r  # the entries of a diag(r)
        return np.diag((br * a.real + bi * a.imag).sum(axis=1)
                       + 1j * (bi * a.real - br * a.imag).sum(axis=1))

    @staticmethod
    def entry_kraus_term(a):
        """diag(a a^dag) for a monomial operator a: each row's (Re a)^2 + (Im a)^2."""
        return np.diag((a.real ** 2 + a.imag ** 2).sum(axis=1))

    def check_table_against_loop(self, c, init, final):
        # generic spectra: every gap is its own atom, so the log masses are
        # the log table entries in gap order
        ops = c.kraus_ops
        vf_dag = final.hamiltonian.eigenvectors.conj().T
        vi = init.hamiltonian.eigenvectors
        with np.errstate(divide="ignore"):  # a table entry no operator reaches
            log_probs = np.log(self.loop_sum(ops, lambda a: np.abs(vf_dag @ a @ vi) ** 2))
        gaps = np.subtract.outer(final.hamiltonian.energies, init.hamiltonian.energies)
        order = np.argsort(gaps.ravel(), kind="stable")
        pf, pb_raw = tpm_distributions(c, init, final)
        assert pf.n_atoms == c.dim**2
        assert np.array_equal(pf.log_mass,
                              (log_probs + init.log_populations).ravel()[order])
        assert np.array_equal(pb_raw.log_mass,
                              (log_probs + final.log_populations[:, np.newaxis]).ravel()[order])

    @staticmethod
    def scaled_permutations(dim, n_kraus, seed, real):
        """The entries (cols, vals) of A_l = P_l D_l with random permutations
        P_l and diagonals D_l whose columns are normalized over l; about a
        fifth of the entries are 0, each leaving a row and a column of its
        operator empty."""
        rng = np.random.default_rng(seed)
        weights = rng.random((n_kraus, dim)) * (rng.random((n_kraus, dim)) > 0.2)
        weights[0] = np.where(weights.any(axis=0), weights[0], 1.0)
        weights /= weights.sum(axis=0)
        phases = rng.choice([-1.0, 1.0], (n_kraus, dim)) if real else \
            np.exp(2j * np.pi * rng.random((n_kraus, dim)))
        cols = np.empty((n_kraus, dim), dtype=int)
        vals = np.empty((n_kraus, dim), dtype=complex)
        for k in range(n_kraus):
            rows = rng.permutation(dim)  # A_l[rows[j], j] = sqrt(weights[l, j]) phases[l, j]
            cols[k, rows], vals[k, rows] = np.arange(dim), np.sqrt(weights[k]) * phases[k]
        return cols, vals

    MONOMIAL = {
        "identity": lambda: preset("identity", [], 3),
        "dephasing": lambda: preset("dephasing", [0.3], 5),
        "depolarizing": lambda: preset("depolarizing", [0.3], 6),
        "amplitude_damping": lambda: preset("amplitude_damping", [0.4], 4),
        "thermal_attenuator": lambda: preset("thermal_attenuator", [0.5, 0.3], 2),
        # scenarios/unitary_flip.json's operator and other monomial Kraus
        # lists, built from their entries
        "unitary_flip": lambda: channels._monomial_channel(
            np.array([[1, 0]]), np.ones((1, 2), dtype=complex), "unitary_flip"),
        "one-level": lambda: channels._monomial_channel(
            np.zeros((65, 1), dtype=int), random_channel(1, 65, 45).stack[:, 0].copy(),
            "one-level"),
        **{f"real-{n}": (lambda n=n: channels._monomial_channel(
            *TestStackedSums.scaled_permutations(5, n, n, True), f"real-{n}"))
           for n in (1, 63, 64, 65, 576)},
        **{f"complex-{n}": (lambda n=n: channels._monomial_channel(
            *TestStackedSums.scaled_permutations(5, n, n, False), f"complex-{n}"))
           for n in (1, 63, 64, 65, 576)},
    }

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_monomial_operators_match_operator_loop(self, name):
        c = self.MONOMIAL[name]()
        form = c.monomial
        assert form.cols.shape == form.vals.shape == (c.n_kraus, c.dim)
        rebuilt = np.zeros_like(c.stack)
        op, row = np.indices(form.cols.shape)
        rebuilt[op, row, form.cols] = form.vals
        assert np.array_equal(rebuilt, c.stack)

        rng = np.random.default_rng(len(name))
        h_i, h_f = (Hamiltonian.from_matrix(np.diag(rng.random(c.dim))) for _ in range(2))
        init, final = gibbs_state(h_i, 1.0), gibbs_state(h_f, 1.0)
        # the table adds the same |A_l[i, j]|^2 in the same order on any kernel
        self.check_table_against_loop(c, init, final)

        rho = init.state
        applied, kraus_sum = c.apply(rho), c.kraus_sum()
        loops = (self.loop_sum(c.kraus_ops, lambda a: a @ rho @ a.conj().T),
                 self.loop_sum(c.kraus_ops, lambda a: a @ a.conj().T))
        off_diagonal = ~np.eye(c.dim, dtype=bool)
        assert not applied[off_diagonal].any() and not kraus_sum[off_diagonal].any()
        assert not kraus_sum.imag.any()
        if not c.stack.imag.any():
            # a real product rounds once on any kernel: the loops' bytes
            assert applied.tobytes() == loops[0].tobytes()
            assert kraus_sum.tobytes() == loops[1].tobytes()
        for got, want in zip((applied, kraus_sum), loops):
            # a kernel may fuse a complex product's two real products; the
            # bound was fixed before the monomial sums were written
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_entry_sums_keep_their_stated_arithmetic(self, name):
        # in an energy basis both diagonal sums give the bytes of a loop over
        # their stated per-operator terms, complex entries and d = 1 included
        c = self.MONOMIAL[name]()
        rng = np.random.default_rng(len(name))
        rho = gibbs_state(Hamiltonian.from_matrix(np.diag(rng.random(c.dim))), 1.0).state
        r = np.diagonal(rho).real
        assert np.array_equal(rho, np.diag(r))
        want_apply = self.loop_sum(c.kraus_ops, partial(self.entry_apply_term, r))
        want_kraus = self.loop_sum(c.kraus_ops, self.entry_kraus_term).astype(complex)
        assert c.apply(rho).tobytes() == want_apply.tobytes()
        assert c.kraus_sum().tobytes() == want_kraus.tobytes()

    @pytest.mark.parametrize("dim", [24, 64])
    def test_entry_route_temporaries(self, dim):
        # peak traced memory of one call, after a warm-up call, in units of
        # one (n_kraus, dim) float array
        c = preset("depolarizing", [0.3], dim)
        rho = gibbs_state(ladder(dim), 1.0).state
        unit = c.n_kraus * dim * 8
        for call, bound in ((partial(c.apply, rho), 4.5), (c.kraus_sum, 3.1)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * unit, (call, peak / unit)
        assert "stack" not in vars(c)

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_monomial_kraus_lists_take_the_dense_route(self, name):
        # the same operators as a Kraus list carry no entries, so every pass
        # takes the dense route and gives the per-operator loops' bits
        c = validate_channel(self.MONOMIAL[name]().stack)
        assert c.monomial is None
        if c.dim >= 2:  # at d = 1 a dense block of more than 8 sums pairwise
            rng = np.random.default_rng(len(name))
            h_i, h_f = (Hamiltonian.from_matrix(np.diag(rng.random(c.dim))) for _ in range(2))
            self.check_against_loops(c, h_i, h_f)

    @pytest.mark.parametrize("ops", [
        # one row holds two entries, every column one per operator
        [np.sqrt(0.5) * np.eye(2), [[0.5, 0.5], [0.0, 0.0]], [[0.5, -0.5], [0.0, 0.0]]],
        # one column holds two entries, every row one
        [np.sqrt(0.5) * np.eye(2), [[0.5, 0.0], [0.5, 0.0]], np.diag([0.0, np.sqrt(0.5)])],
    ], ids=["row", "column"])
    def test_two_entries_in_a_line_are_not_monomial(self, ops):
        c = validate_channel(ops)
        assert np.count_nonzero(c.stack) <= c.n_kraus * c.dim  # no more nonzeros than entries
        assert c.monomial is None
        rho = gibbs_state(ladder(2), 1.0).state
        assert np.array_equal(c.apply(rho),
                              self.loop_sum(c.kraus_ops, lambda a: a @ rho @ a.conj().T))

    @pytest.mark.parametrize("n_kraus", [1, 2, 5, 63, 64, 65])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_channels_are_not_monomial(self, dim, n_kraus):
        assert random_channel(dim, n_kraus, 100 * dim + n_kraus).monomial is None
        assert unitary_mixture(dim, n_kraus, 100 * dim + n_kraus).monomial is None

    def test_monomial_sum_starts_from_positive_zero(self):
        # a -0.0 population alone feeds row 1 of every dephasing operator: the
        # loop's sum starts from +0.0, and so must the monomial one
        c = preset("dephasing", [0.3], 3)
        rho = np.diag([0.5, -0.0, 0.5])
        want = self.loop_sum(c.kraus_ops, lambda a: a @ rho @ a.conj().T)
        assert np.signbit(want[1, 1].real) == np.signbit(c.apply(rho)[1, 1].real)

    def test_complex_diagonal_state_keeps_the_product_for_monomial_operators(self):
        c = preset("amplitude_damping", [0.4], 5)
        assert c.monomial is not None
        rho = np.diag(np.arange(1.0, 6.0) / 15.0 * np.exp(-3j * np.linspace(0.0, 1.0, 5)))
        assert np.array_equal(c.apply(rho),
                              self.loop_sum(c.kraus_ops, lambda a: a @ rho @ a.conj().T))

    def test_operators_are_read_only_views_of_the_stack(self):
        c = self.CHANNELS[65]()
        assert c.stack.shape == (65, 3, 3)
        assert all(np.shares_memory(a, c.stack) for a in c.kraus_ops)
        with pytest.raises(ValueError):
            c.stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            c.kraus_ops[64][0, 0] = 1.0

    def test_stack_is_a_copy_of_the_input(self):
        ops = [m.copy() for m in AMP_DAMP_OPS]
        c = validate_channel(ops)
        ops[0][0, 0] = 5.0
        assert c.kraus_ops[0][0, 0] == 1.0


class TestBackward:
    """The canonical backward process B_l = A_l, seen through its TPM distribution."""

    def test_damping_dual_sends_ground_to_identity(self):
        # backward atoms leaving the final ground state carry
        # <E_m| sum_l A_l^dag |0><0| A_l |E_m> = 1 times its population
        final = gibbs_state(Hamiltonian.from_matrix(np.diag([0.0, 3.0])), 1.0)
        _, pb = tpm_distributions(validate_channel(AMP_DAMP_OPS),
                                  gibbs_state(ladder(2), 1.0), final)
        np.testing.assert_allclose(pb.delta_u, [-1.0, 0.0, 2.0, 3.0], atol=1e-14)
        ground = final.populations[0]
        np.testing.assert_allclose(pb.mass, [ground, ground, 0.0, 0.0], atol=1e-14)

    def test_trace_preserving_flag_tracks_unitality(self):
        # the backward process preserves trace, so its distribution has
        # total mass gamma = 1, exactly when the forward channel is unital
        presets = [
            preset("identity", [], 3),
            preset("dephasing", [0.4], 3),
            preset("depolarizing", [0.6], 3),
            preset("amplitude_damping", [0.4], 3),
            preset("thermal_attenuator", [0.5, 0.3], 2),
            preset("unitary", [3], 4),
            preset("random", [3, 4], 3),
            unitary_mixture(3, 3, 13),
        ]
        for c in presets:
            ts = gibbs_state(ladder(c.dim), 1.0)
            _, pb = tpm_distributions(c, ts, ts)
            assert (abs(pb.total_mass - 1.0) < 1e-10) == unitality_of_sum(c.kraus_sum()).unital

    def test_backward_unitality(self):
        # sum B^dag B = I because the forward channel preserves trace, which
        # makes the backward exponential average exactly 1
        rng = np.random.default_rng(83)
        for k in range(30):
            dim = int(rng.integers(2, 6))
            c = random_channel(dim, int(rng.integers(1, 6)), 8300 + k)
            init = gibbs_state(ladder(dim), 1.0)
            final = gibbs_state(ladder(dim, top=2.0), 1.0)
            _, pb = tpm_distributions(c, init, final)
            delta_f = final.free_energy - init.free_energy
            assert abs(exp_average(pb, 1.0, -delta_f) - 1.0) < 1e-10


class TestPresets:
    def test_zero_damping_is_identity(self):
        c = preset("amplitude_damping", [0.0], 3)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        np.testing.assert_allclose(c.apply(rho), rho, atol=1e-14)

    def test_full_depolarizing(self):
        c = preset("depolarizing", [1.0], 2)
        assert unitality_of_sum(c.kraus_sum()).unital
        rho = np.array([[0.9, 0.3], [0.3, 0.1]], dtype=complex)
        np.testing.assert_allclose(c.apply(rho), np.eye(2) / 2.0, atol=1e-12)

    def test_random_preset_is_deterministic(self):
        a = preset("random", [7, 3], 3)
        b = preset("random", [7, 3], 3)
        assert a.n_kraus == 3
        for x, y in zip(a.kraus_ops, b.kraus_ops):
            assert np.array_equal(x, y)

    def test_haar_reproducible(self):
        assert np.array_equal(haar_unitary(5, 123), haar_unitary(5, 123))
        assert not np.allclose(haar_unitary(5, 123), haar_unitary(5, 124))

    def test_thermal_attenuator_limits(self):
        cold = preset("thermal_attenuator", [0.7, 0.0], 2)
        plain = preset("amplitude_damping", [0.7], 2)
        rho = np.array([[0.2, 0.1], [0.1, 0.8]], dtype=complex)
        np.testing.assert_allclose(cold.apply(rho), plain.apply(rho), atol=1e-14)
        assert not unitality_of_sum(cold.kraus_sum()).unital

    def test_thermal_attenuator_qubit_only(self):
        with pytest.raises(DimensionMismatch):
            preset("thermal_attenuator", [0.5, 1.0], 3)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("teleport", [], 2)

    @pytest.mark.parametrize("name,params", [
        ("dephasing", [1.5]),
        ("depolarizing", [-0.1]),
        ("amplitude_damping", [2.0]),
        ("thermal_attenuator", [0.5, -1.0]),
        ("dephasing", [0.1, 0.2]),
        ("identity", [1.0]),
    ])
    def test_param_out_of_range(self, name, params):
        with pytest.raises(ParamOutOfRange):
            preset(name, params, 2)

    def test_all_presets_validate_across_dims(self):
        for dim in (2, 3, 5):
            for c in (preset("identity", [], dim),
                      preset("unitary", [1], dim),
                      preset("dephasing", [0.3], dim),
                      preset("depolarizing", [0.8], dim),
                      preset("amplitude_damping", [0.6], dim),
                      preset("random", [2, 4], dim)):
                assert c.dim == dim


def loop_preset(name, p, dim):
    """The presets' operators built one at a time, as lists of matrices.

    The clock power Z^b is diag(exp(2 pi i (k b mod dim) / dim)), its phases
    read exactly from the table of dim-th roots; X^a is a permutation matrix.
    """
    eye = np.eye(dim, dtype=complex)
    k = np.arange(dim)
    roots = np.exp(2j * np.pi * k / dim)

    def z(b):
        return np.diag(roots[(k * b) % dim])

    if name == "dephasing":
        return [np.sqrt(1.0 - p) * eye] + [np.sqrt(p / (dim - 1)) * z(b) for b in range(1, dim)]
    if name == "depolarizing":
        ops = [np.sqrt(1.0 - p + p / dim**2) * eye]
        for a in range(dim):
            x_a = np.zeros((dim, dim), dtype=complex)
            x_a[(k + a) % dim, k] = 1.0
            for b in range(dim):
                if a or b:
                    ops.append(np.sqrt(p) / dim * (x_a @ z(b)))
        return ops
    a0 = eye.copy()
    a0[1:, 1:] *= np.sqrt(1.0 - p)
    ops = [a0]
    for k in range(1, dim):
        ak = np.zeros((dim, dim), dtype=complex)
        ak[0, k] = np.sqrt(p)
        ops.append(ak)
    return ops


class _Replay:
    """Stands in for a Generator: standard_normal hands out the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


def full_qr_haar_unitary(dim, seed):
    """Reference Haar unitary: full QR of a square seeded Gaussian, phase-fixed."""
    rng = np.random.default_rng(int(seed))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


class TestHaarDraws:
    """haar_unitary keeps its draw; haar_isometry is Haar distributed."""

    SEEDS = (0, 77, 2**63 - 2)

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 64])
    def test_haar_unitary_bytes_unchanged(self, dim):
        for seed in self.SEEDS:
            assert haar_unitary(dim, seed).tobytes() == full_qr_haar_unitary(dim, seed).tobytes()

    def test_haar_unitary_digest(self):
        # sha256 of the full-QR draws rounded to 10 decimals; the rounding
        # absorbs the last-bit differences between BLAS builds
        h = hashlib.sha256()
        for dim in (1, 2, 5, 12):
            for seed in self.SEEDS:
                h.update(np.round(haar_unitary(dim, seed), 10).tobytes())
        assert h.hexdigest() == (
            "84e2f80b70d86f2909519ba5e604bc314456de5751f144a7b8c969cb92b722c1")

    @pytest.mark.parametrize("rows,cols", [(1, 1), (4, 1), (12, 3), (48, 6)])
    def test_isometry(self, rows, cols):
        v = haar_isometry(rows, cols, 5)
        assert v.shape == (rows, cols)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(cols), atol=1e-13)

    def test_more_columns_than_rows_refused(self):
        with pytest.raises(ParamOutOfRange):
            haar_isometry(2, 3, 0)

    # shapes of the batched draws: both Hamiltonian eigenbases of a scenario,
    # unitary-mixture stacks, a channel isometry, a two-axis batch and dim 64
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2), (2, 5, 5), (6, 4, 4), (3, 30, 5),
                                       (2, 3, 4, 4), (2, 64, 64)])
    def test_batched_slices_equal_the_2d_path(self, shape):
        # the loop version as reference: each slice through the 2-D path on
        # the same Gaussian slice, which a replaying stand-in generator hands it
        rng = np.random.default_rng(41)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        batched = channels._haar_isometries(np.random.default_rng(41), shape)
        assert batched.shape == shape
        for k in np.ndindex(shape[:-2]):
            ref = channels._haar_isometries(_Replay(re[k], im[k]), shape[-2:])
            assert batched[k].tobytes() == ref.tobytes()

    # N draws of a (M, D) isometry at seeds 0..N-1; the sample size and both
    # bounds were fixed before the first run, at four standard deviations
    M, D, N = 12, 3, 2000

    @pytest.fixture(scope="class")
    def draws(self):
        return np.stack([haar_isometry(self.M, self.D, s) for s in range(self.N)])

    def test_diagonal_has_no_preferred_phase(self, draws):
        # Haar is invariant under V -> diag(e^{i theta}) V, so E Re V_jj = 0, with
        # variance 1/(2 M) per entry. Without the phase fix of the R diagonal, QR
        # returns a V_jj with a negative real part on average.
        mean = draws[:, np.arange(self.D), np.arange(self.D)].real.mean()
        assert abs(mean) < 4.0 * np.sqrt(1.0 / (self.M * self.N * self.D))

    def test_fourth_moment(self, draws):
        # a Haar column is uniform on the unit sphere of C^M, where
        # E|v_i|^(2k) = k! (M-1)! / (M+k-1)!
        m = self.M
        e4 = 2.0 / (m * (m + 1))
        var4 = 24.0 / (m * (m + 1) * (m + 2) * (m + 3)) - e4**2
        # the M D entries of one draw are averaged first; whatever their
        # correlation, that mean has variance at most var4, and draws are independent
        per_draw = (np.abs(draws) ** 4).mean(axis=(1, 2))
        assert abs(per_draw.mean() - e4) < 4.0 * np.sqrt(var4 / self.N)


class TestArrayBuiltChannels:
    """Channels built as one array equal the per-operator constructions, byte for byte.

    tobytes() compares every bit, signed zeros included. The dephasing and
    depolarizing stacks scatter their entries into +0.0, where the clock
    products leave -0.0 off the entries (which ones depends on the BLAS
    kernel); they are compared with the products plus +0.0, which turns
    only -0.0 into +0.0.
    """

    @staticmethod
    def same_bytes(channel, ops):
        stack = np.stack(ops)
        return (channel.stack.shape == stack.shape
                and channel.stack.tobytes() == stack.tobytes())

    @pytest.mark.parametrize("name,dim", [
        (name, dim)
        for name in ("dephasing", "depolarizing", "amplitude_damping")
        for dim in (1, 2, 3, 4, 5, 16, 24)
        if name != "dephasing" or dim > 1  # dephasing needs dim >= 2
    ])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
    def test_probability_presets(self, name, dim, p):
        ops = loop_preset(name, p, dim)
        if name != "amplitude_damping":
            ops = np.stack(ops) + 0.0
        assert self.same_bytes(preset(name, [p], dim), ops)

    @pytest.mark.parametrize("name", ["dephasing", "depolarizing"])
    def test_scattered_stack_keeps_the_products_outputs(self, name):
        # the dense route on the scattered stack gives the bytes of the clock
        # products with their signed zeros: the action on a dense state (a
        # Haar initial Hamiltonian's), and the table on a Haar pair and on a
        # Haar initial Hamiltonian with a diagonal final one
        for dim in (2, 3, 5, 6, 7, 19, 23):
            diagonal = Hamiltonian.from_matrix(np.diag(np.random.default_rng(dim).random(dim)))
            pairs = [(random_hamiltonian(dim, 11), random_hamiltonian(dim, 12)),
                     (random_hamiltonian(dim, 13), diagonal)]
            for p in (0.0, 0.3, 1.0):
                built = preset(name, [p], dim), validate_channel(loop_preset(name, p, dim))
                for (h_i, h_f), beta in itertools.product(pairs, (0.2, 1.0, 5.0)):
                    rho = gibbs_state(h_i, beta).state
                    got, want = (c.apply(rho).tobytes() for c in built)
                    assert got == want, (dim, p, beta)
                for h_i, h_f in pairs:
                    got, want = (c.transition_table(h_f, h_i).tobytes()
                                 for c in built)
                    assert got == want, (dim, p)

    @pytest.mark.parametrize("dim", [1, 2, 5, 24])
    def test_identity_and_unitary(self, dim):
        assert self.same_bytes(preset("identity", [], dim), [np.eye(dim, dtype=complex)])
        assert self.same_bytes(preset("unitary", [9], dim), [haar_unitary(dim, 9)])

    @pytest.mark.parametrize("dim,n_kraus", [(1, 1), (2, 3), (3, 16), (5, 4)])
    def test_random_channel(self, dim, n_kraus):
        v = haar_isometry(dim * n_kraus, dim, 77)
        # A_l[i, j] = V[i * n_kraus + l, j]
        ops = [v[ell::n_kraus] for ell in range(n_kraus)]
        c = random_channel(dim, n_kraus, 77)
        assert self.same_bytes(c, ops)
        assert c.stack.flags.c_contiguous

    @pytest.mark.parametrize("dim", [1, 2, 5, 24])
    def test_single_operator_random_channel_is_haar_unitary(self, dim):
        for seed in (0, 77, 2**63 - 2):
            assert self.same_bytes(random_channel(dim, 1, seed), [haar_unitary(dim, seed)])

    def test_random_channel_is_checked_for_trace_preservation(self, monkeypatch):
        calls = []
        tp_sum = channels._tp_sum
        monkeypatch.setattr(channels, "_tp_sum", lambda s: calls.append(s.shape) or tp_sum(s))
        random_channel(3, 4, 5)
        assert calls == [(4, 3, 3)]

    @pytest.mark.parametrize("name,stack", [("dephasing", False), ("depolarizing", False),
                                            ("dephasing", True)],
                             ids=["dephasing", "depolarizing", "dephasing-stack"])
    def test_presets_call_no_matrix_power(self, monkeypatch, name, stack):
        # the clock phases come from one table of roots, with no BLAS product
        matrix_power = np.linalg.matrix_power
        calls = []

        def counted(a, n):
            calls.append(n)
            return matrix_power(a, n)

        monkeypatch.setattr(channels.np.linalg, "matrix_power", counted)
        c = preset(name, [0.3], 7)
        if stack:  # the dense stack is scattered from the entries
            c.stack
        assert calls == []

    @pytest.mark.parametrize("ops,error", [
        ([], DimensionMismatch),
        (np.zeros((0, 2, 2)), DimensionMismatch),
        ([np.eye(2), np.eye(3)], DimensionMismatch),
        ([np.eye(2), np.ones((2, 3))], DimensionMismatch),
        ([np.ones((2, 3)), np.ones((2, 3))], DimensionMismatch),
        ([np.ones(2), np.ones(2)], NotSquare),
        ([np.diag([1.0, np.nan])], ValueError),
    ], ids=["empty-list", "empty-array", "mixed-shapes", "ragged", "non-square",
            "one-dimensional", "nan"])
    def test_malformed_input(self, ops, error):
        with pytest.raises(error):
            validate_channel(ops)

    def test_array_input_is_copied(self):
        ops = np.stack(AMP_DAMP_OPS)
        c = validate_channel(ops)
        assert c.stack.tobytes() == validate_channel(AMP_DAMP_OPS).stack.tobytes()
        assert not np.shares_memory(ops, c.stack)
        ops[0, 0, 0] = 5.0
        assert c.stack[0, 0, 0] == 1.0

    def test_one_kraus_sum_per_run(self, monkeypatch, tmp_path):
        kraus_sum = KrausChannel.kraus_sum
        calls = []

        def counted(self):
            calls.append(self.n_kraus)
            return kraus_sum(self)

        monkeypatch.setattr(KrausChannel, "kraus_sum", counted)
        golden = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                              "amplitude_damping_golden.json")
        assert cli.main(["run", golden, "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == [2]


class TestMonomialPresets:
    """The presets built from their entries: the stack is built only for a dense route."""

    CASES = [("identity", [], dim) for dim in (1, 2, 3, 5, 16, 24)] + [
        (name, [p], dim)
        for name in ("dephasing", "depolarizing", "amplitude_damping")
        for dim in (1, 2, 3, 5, 16, 24)
        for p in (0.0, 0.05, 0.3, 1.0)
        if name != "dephasing" or dim > 1
    ] + [("thermal_attenuator", [p, nbar], 2) for p, nbar in ((0.0, 0.0), (0.5, 0.3), (1.0, 2.0))]

    @pytest.mark.parametrize("name,params,dim", CASES)
    def test_form_is_the_detected_form(self, name, params, dim):
        c = preset(name, params, dim)
        form = c.monomial
        assert c.dim == dim and form.cols.shape == form.vals.shape == (c.n_kraus, dim)
        assert "stack" not in vars(c)  # dim, n_kraus and the form never build it
        assert not c.stack.flags.writeable

    @pytest.mark.parametrize("name,params", [
        ("identity", []), ("unitary", [3]), ("dephasing", [0.3]), ("depolarizing", [0.3]),
        ("amplitude_damping", [0.4]), ("thermal_attenuator", [0.5, 0.3]), ("random", [3, 4]),
    ])
    def test_only_entry_presets_carry_a_form(self, name, params):
        c = preset(name, params, 2)
        assert (c.monomial is not None) == (name in MONOMIAL_PRESETS)
        hash(c)  # the form is not a compared field, so it is never hashed

    @pytest.mark.parametrize("make", [lambda: preset("dephasing", [0.3], 3),
                                      lambda: validate_channel([np.eye(2)])],
                             ids=["preset", "kraus-list"])
    def test_channels_compare_by_identity(self, make):
        c, twin = make(), make()
        assert c == c and hash(c) == hash(c)
        assert c != twin and len({c, twin}) == 2
        assert np.array_equal(c.stack, twin.stack)

    def test_entries_are_checked_for_trace_preservation(self):
        # sum A^dag A = diag(0.25, 0.25), as for validate_channel([diag(0.5, 0.5)])
        with pytest.raises(NotTracePreserving) as err:
            channels._monomial_channel(np.array([[0, 1]]), np.array([[0.5, 0.5]], dtype=complex),
                                       label="half")
        assert "7.500e-01" in str(err.value)

    def test_clock_powers_read_one_table_of_roots(self):
        # Z^b[k, k] = exp(2 pi i (k b mod d) / d): every power is row 1 read
        # at an exact index, bit for bit
        for dim in range(2, 65):
            powers = channels._clock_powers(dim)
            k = np.arange(dim)
            for b in range(dim):
                assert powers[b].tobytes() == powers[1][(k * b) % dim].tobytes(), (dim, b)

    def test_clock_preset_forms_keep_their_bytes(self):
        # one digest of the dephasing and depolarizing entries, which no BLAS
        # call touches, so it holds on every kernel. Columns are hashed as
        # bytes (d <= 64), which also keeps the digest free of the index width.
        h = hashlib.sha256()
        for name in ("dephasing", "depolarizing"):
            for dim in range(2, 65):
                for p in (0.0, 0.3, 1.0):
                    form = preset(name, [p], dim).monomial
                    h.update(form.cols.astype(np.uint8))
                    h.update(form.vals)
        assert h.hexdigest() == (
            "c43a96734702888fa313a096325f308c1d1ff4be1de72893a85df22f9000bb95")

    @staticmethod
    def ladder_document(dim):
        energies = np.linspace(0.0, 1.0, dim)
        return {"name": "ladder", "dim": dim, "beta": 1.0,
                "h_initial": {"diag": [float(e) for e in energies]},
                "h_final": {"diag": [float(e) for e in 2.0 * energies[::-1]]},
                "channel": {"preset": "depolarizing", "params": [0.3]}, "seed": 0}

    def test_entry_route_never_builds_the_stack(self):
        sc = scenario_from_dict(self.ladder_document(24))
        report = build_report(sc)
        assert "stack" not in vars(sc.channel)
        # the same operators as a Kraus list, which take the dense route
        listed = validate_channel(preset("depolarizing", [0.3], 24).stack)
        want = build_report(replace(sc, channel=listed))
        assert repr(report.as_dict()).encode() == repr(want.as_dict()).encode()

    def test_domain_edge_memory(self):
        # depolarizing at dim 64 has channels.MAX_KRAUS operators; its dense
        # stack alone is 268 MB. The 50 MB bound was fixed before the presets
        # were built from their entries, when the build traced 91 MB at dim 48.
        sc = scenario_from_dict(self.ladder_document(64))  # parses the preset too
        tracemalloc.start()
        try:
            c = preset("depolarizing", [0.3], 64)
            report = build_report(replace(sc, channel=c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_kraus == channels.MAX_KRAUS and "stack" not in vars(c)
        assert report.max_residual() < 1e-8
        assert peak < 50e6
