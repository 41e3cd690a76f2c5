import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa
from conftest import (
    FIVE_SPIN_GROUND_ENERGY,
    FIVE_SPIN_GROUND_INDICES,
    orbit_isometry,
    random_model,
)


def brute_energy(terms, spins):
    # independent of the vectorized implementation
    total = 0.0
    for key, coeff in terms.items():
        if len(key) == 1:
            total += coeff * spins[key[0] - 1]
        else:
            total += coeff * spins[key[0] - 1] * spins[key[1] - 1]
    return total


class TestIsingModel:
    def test_coerces_plain_dicts(self):
        model = qa.IsingModel.from_terms({(1, 2): -1, (1,): 0.5})
        assert model.n_qubits == 2
        assert model.terms[(1, 2)] == -1.0

    def test_reversed_pair_is_normalized(self):
        model = qa.IsingModel.from_terms({(2, 1): -1.0})
        assert (1, 2) in model.terms

    def test_ambiguous_duplicate_pairs_rejected(self):
        with pytest.raises(qa.ModelError, match="ambiguous"):
            qa.IsingModel.from_terms({(1, 2): -1.0, (2, 1): 1.0})

    def test_self_coupling_rejected(self):
        with pytest.raises(qa.ModelError):
            qa.IsingModel.from_terms({(1, 1): 1.0})

    def test_zero_based_index_rejected(self):
        with pytest.raises(qa.ModelError, match="1-based"):
            qa.IsingModel.from_terms({(0,): 1.0})

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(qa.ModelError):
            qa.IsingModel.from_terms({(1,): float("inf")})

    def test_size_guard(self):
        with pytest.raises(qa.SizeError):
            qa.IsingModel.from_terms({(1,): 1.0}, n_qubits=17)

    def test_empty_model_needs_explicit_size(self):
        with pytest.raises(qa.ModelError):
            qa.IsingModel.from_terms({})
        model = qa.IsingModel.from_terms({}, n_qubits=2)
        assert model.n_qubits == 2

    def test_metadata_not_compared(self):
        a = qa.IsingModel.from_terms({(1,): 1.0}, metadata={"x": 1})
        b = qa.IsingModel.from_terms({(1,): 1.0})
        assert a == b


class TestIsingDiagonal:
    def test_five_spin_all_up_energy(self, five_spin):
        diag = qa.ising_diagonal(five_spin)
        assert diag[0] == pytest.approx(-4.0, abs=1e-14)

    def test_five_spin_matches_enumeration(self, five_spin):
        diag = qa.ising_diagonal(five_spin)
        for v in range(32):
            spins = qa.int_to_spin(v, 5)
            assert diag[v] == pytest.approx(brute_energy(five_spin.terms, spins), abs=1e-12)

    def test_empty_model(self):
        assert qa.ising_diagonal(qa.IsingModel.from_terms({}, n_qubits=1)).tolist() == [0.0, 0.0]

    def test_single_field(self):
        assert qa.ising_diagonal({(1,): 1.0}).tolist() == [1.0, -1.0]

    @given(st.data())
    @settings(max_examples=40)
    def test_global_flip_symmetry_without_fields(self, data):
        # coupling-only models have identical energies for v and its complement
        n = data.draw(st.integers(2, 4))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        coeffs = data.draw(
            st.lists(st.floats(-2, 2), min_size=len(pairs), max_size=len(pairs))
        )
        model = qa.IsingModel.from_terms(
            {p: c for p, c in zip(pairs, coeffs) if c != 0.0} or {(1, 2): 1.0},
            n_qubits=n,
        )
        diag = qa.ising_diagonal(model)
        full = (1 << n) - 1
        for v in range(1 << n):
            assert diag[v] == pytest.approx(diag[v ^ full], abs=1e-12)


class TestTransverseMatrix:
    def test_single_qubit(self):
        assert qa.transverse_matrix(1).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_two_qubit_eigenvalues(self):
        eigs = np.linalg.eigvalsh(qa.transverse_matrix(2))
        assert np.allclose(eigs, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_row_sums_equal_qubit_count(self):
        assert np.allclose(qa.transverse_matrix(3).sum(axis=1), 3.0)

    def test_holds_one_matrix(self):
        m = qa.transverse_matrix(4)
        assert (m if m.base is None else m.base).nbytes == m.nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spectrum_is_binomial(self, n):
        eigs = np.linalg.eigvalsh(qa.transverse_matrix(n))
        values, counts = np.unique(np.round(eigs, 8), return_counts=True)
        assert values.tolist() == [float(n - 2 * m) for m in range(n, -1, -1)]
        assert counts.tolist() == [math.comb(n, m) for m in range(n, -1, -1)]

    def test_size_guard(self):
        with pytest.raises(qa.SizeError):
            qa.transverse_matrix(0)
        with pytest.raises(qa.SizeError):
            qa.transverse_matrix(17)


class TestHamiltonianAt:
    def test_endpoints_linear(self, five_spin, linear):
        h0 = qa.hamiltonian_at(five_spin, linear, 0.0)
        assert np.allclose(h0, qa.transverse_matrix(5), atol=1e-15)
        h1 = qa.hamiltonian_at(five_spin, linear, 1.0)
        assert np.allclose(h1, np.diag(qa.ising_diagonal(five_spin)), atol=1e-15)

    def test_circular_midpoint(self, five_spin, circular):
        h = qa.hamiltonian_at(five_spin, circular, 0.5)
        expected = (np.sqrt(2) / 2) * qa.transverse_matrix(5) + (np.sqrt(2) / 2) * np.diag(
            qa.ising_diagonal(five_spin)
        )
        assert np.allclose(h, expected, atol=1e-14)

    def test_driver_sign_flips_transverse_part(self, five_spin, circular):
        flipped = circular.with_driver_sign(-1)
        h_plus = qa.hamiltonian_at(five_spin, circular, 0.25)
        h_minus = qa.hamiltonian_at(five_spin, flipped, 0.25)
        diag = np.diag(np.diag(h_plus))
        assert np.allclose(h_minus - np.diag(np.diag(h_minus)), -(h_plus - diag), atol=1e-14)

    def test_domain_error(self, five_spin, circular):
        with pytest.raises(ValueError):
            qa.hamiltonian_at(five_spin, circular, 1.5)

    def test_offsets_enter_linearly(self, circular):
        model = qa.IsingModel.from_terms({(1, 2): 1.0})
        offsets = qa.FieldOffsets.from_vectors(x=[0.3, 0.0], z=[0.0, -0.7])
        h = qa.hamiltonian_at(model, circular, 0.5, offsets)
        h_plain = qa.hamiltonian_at(model, circular, 0.5)
        extra = h - h_plain
        x1 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        z2 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        assert np.allclose(extra, 0.3 * x1 - 0.7 * z2, atol=1e-14)

    def test_offsets_qubit_count_checked(self, five_spin, circular):
        offsets = qa.FieldOffsets.from_vectors(x=[1.0], n_qubits=1)
        with pytest.raises(qa.ModelError):
            qa.hamiltonian_at(five_spin, circular, 0.5, offsets)

    def test_always_hermitian(self):
        rng = np.random.default_rng(17)
        names = ["linear", "quadratic", "circular", "dw_quadratic"]
        schedules = {name: qa.builtin_schedule(name) for name in names}
        for _ in range(1000):
            model = random_model(rng, int(rng.integers(1, 5)))
            s = float(rng.uniform(0.0, 1.0))
            sched = schedules[names[rng.integers(0, 4)]]
            h = qa.hamiltonian_at(model, sched, s)
            assert np.abs(h - h.conj().T).max() <= 1e-12


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def pauli(op, qubit, n):
    """``op`` on one qubit as a Kronecker product; qubit 1 is the last factor."""
    factors = [np.eye(2)] * n
    factors[n - qubit] = op
    return functools.reduce(np.kron, factors)


class TestBaseOperators:
    """The base operators against Pauli products built independently."""

    @staticmethod
    def problem(n, sign, with_offsets):
        rng = np.random.default_rng(10 * n + 2 * with_offsets + (sign > 0))
        terms = {(i,): float(rng.normal()) for i in range(1, n + 1)}
        terms.update({p: float(rng.normal()) for p in itertools.combinations(range(1, n + 1), 2)})
        offsets = (qa.FieldOffsets.from_vectors(x=rng.normal(size=n), z=rng.normal(size=n))
                   if with_offsets else None)
        return qa.IsingModel.from_terms(terms, n_qubits=n), offsets, rng

    @pytest.mark.parametrize("with_offsets", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hamiltonian_matches_kronecker_products(self, n, sign, with_offsets):
        model, offsets, _ = self.problem(n, sign, with_offsets)
        sched = qa.builtin_schedule("dw_quadratic", driver_sign=sign)
        for s in (0.0, 0.37, 0.9):
            a, b = sched.A(s), sched.B(s)
            expected = sum(sign * a * pauli(PAULI_X, k, n) for k in range(1, n + 1))
            for key, coeff in model.terms.items():
                expected = expected + b * coeff * functools.reduce(
                    np.matmul, [pauli(PAULI_Z, k, n) for k in key])
            if offsets is not None:
                for k in range(1, n + 1):
                    expected = expected + (offsets.x[k - 1] * pauli(PAULI_X, k, n)
                                           + offsets.z[k - 1] * pauli(PAULI_Z, k, n))
            h = qa.hamiltonian_at(model, sched, s, offsets)
            assert np.abs(h - expected).max() <= 1e-13

    @pytest.mark.parametrize("with_offsets", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_apply_matches_dense_stack(self, n, sign, with_offsets):
        from annealsim.hamiltonian import _BaseOperators

        model, offsets, rng = self.problem(n, sign, with_offsets)
        bases = _BaseOperators(model, sign, qa.ising_diagonal(model), offsets)
        assert bases.count == (3 if with_offsets else 2)
        p, dim = 3, 1 << n
        block = rng.normal(size=(p, dim)) + 1j * rng.normal(size=(p, dim))
        out = np.empty((bases.count * p, dim), dtype=complex)
        bases.apply(block, out)
        # each row of the block is a vector; the bases are symmetric
        expected = np.concatenate([block @ base for base in bases.dense()])
        assert np.abs(out - expected).max() <= 1e-13
        summed = np.empty(dim, dtype=complex)
        bases.apply_sum(block[: bases.count], summed)
        expected = sum(base @ row for base, row in zip(bases.dense(), block))
        assert np.abs(summed - expected).max() <= 1e-13

    def test_flip_index_flips_the_bits_of_its_mask(self):
        from annealsim.hamiltonian import _flip_index

        n = 5
        index = np.arange(1 << n)
        for mask in range(1 << n):
            flipped = index.reshape((2,) * n)[_flip_index(mask)]
            assert np.array_equal(flipped.ravel(), index ^ mask)

    @staticmethod
    def symmetric_problem(n, kind, rng, with_offsets=True):
        """Couplings and X offsets that keep the global flip: random ones,
        which keep nothing more, or a uniform ring, which keeps its rotations
        and reflections too."""
        if kind == "random":
            terms = {p: float(rng.normal()) for p in itertools.combinations(range(1, n + 1), 2)}
            x = rng.normal(size=n)
        else:
            terms = {(i, i % n + 1) if i < n else (1, n): 0.7 for i in range(1, n + 1)}
            x = np.full(n, 0.3)
        offsets = qa.FieldOffsets.from_vectors(x=x, n_qubits=n) if with_offsets else None
        return qa.IsingModel.from_terms(terms, n_qubits=n), offsets

    @pytest.mark.parametrize("kind", ["random", "ring"])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orbit_space_is_the_projection(self, n, sign, kind):
        # on two qubits both driver flips become the flip of the sector's one
        # bit; on a ring the flips become gathers
        from annealsim.hamiltonian import _BaseOperators

        rng = np.random.default_rng(20 * n + (sign > 0) + 2 * (kind == "ring"))
        model, offsets = self.symmetric_problem(n, kind, rng)
        bases = _BaseOperators(model, sign, qa.ising_diagonal(model), offsets)
        space = bases.run_space()
        iso, order = orbit_isometry(model, offsets, sign)
        assert (space.dim, space.count, space.symmetry_order) == (iso.shape[1], 3, order)
        assert space.parity == (1 if sign == -1 else (-1) ** n)
        expected = iso.T @ bases.dense() @ iso
        assert np.abs(space.dense() - expected).max() <= 1e-14
        p, dim = 3, space.dim
        block = rng.normal(size=(p, dim)) + 1j * rng.normal(size=(p, dim))
        out = np.empty((space.count * p, dim), dtype=complex)
        space.apply(block, out)
        assert np.abs(out - np.concatenate([block @ base for base in expected])).max() <= 1e-13
        summed = np.empty(dim, dtype=complex)
        space.apply_sum(block, summed)
        assert np.abs(summed - sum(base @ row for base, row in zip(expected, block))).max() <= 1e-13
        assert np.abs(space.start_state() - iso.T @ bases.start_state()).max() <= 1e-15
        assert np.abs(space.lift(block[0]) - iso @ block[0]).max() <= 1e-15

    @pytest.mark.parametrize("space", ["full", "flip", "ring"])
    @pytest.mark.parametrize("with_offsets", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", qa.builtin_schedule_names())
    def test_weighted_fill_matches_contracted_stack(self, name, sign, with_offsets, space):
        # the full space takes fields and both offsets; the sector of the
        # global flip and a ring's orbit space only couplings and X offsets,
        # which keep the symmetry
        from annealsim.hamiltonian import _BaseOperators
        from annealsim.magnus import _fit_steps

        n = 4
        rng = np.random.default_rng(sum(map(ord, name)) + 2 * (sign > 0) + 4 * with_offsets)
        if space == "full":
            terms = {p: float(rng.normal()) for p in itertools.combinations(range(1, n + 1), 2)}
            terms.update({(i,): float(rng.normal()) for i in range(1, n + 1)})
            model = qa.IsingModel.from_terms(terms)
            offsets = (qa.FieldOffsets.from_vectors(x=rng.normal(size=n), z=rng.normal(size=n))
                       if with_offsets else None)
        else:
            model, offsets = self.symmetric_problem(n, "random" if space == "flip" else "ring",
                                                    rng, with_offsets)
        schedule = qa.builtin_schedule(name, driver_sign=sign)
        bases = _BaseOperators(model, sign, qa.ising_diagonal(model), offsets).run_space()
        assert (bases.space is None) == (space == "full")
        stack = bases.dense()
        real = bases.envelopes(schedule, np.linspace(0.0, 1.0, 9))
        if space == "ring":
            # gathers of a base meet in one entry, and each is weighted
            # before they are summed there
            expected = np.tensordot(real, stack, axes=1)
            assert np.abs(bases.dense(real) - expected).max() <= 1e-15 * np.abs(expected).max()
        else:  # the terms meet in no entry
            np.testing.assert_array_max_ulp(bases.dense(real),
                                            np.tensordot(real, stack, axes=1), maxulp=1)
        # the coefficients of two step polynomials
        c = _fit_steps(bases, schedule, np.array([0.0, 0.6]), np.array([0.25, 0.4]), 3.0)
        for weights in c:
            expected = np.tensordot(weights, stack, axes=1)
            filled = bases.dense(weights)
            assert filled.dtype == complex
            assert np.abs(filled - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_fields_and_z_offsets_break_the_symmetry(self):
        from annealsim.hamiltonian import _BaseOperators

        def space(terms, offsets=None, n=3):
            model = qa.IsingModel.from_terms(terms, n_qubits=n)
            return _BaseOperators(model, 1, qa.ising_diagonal(model), offsets).run_space()

        # couplings of two magnitudes: no reflection, only the global flip
        chain = {(1, 2): 1.0, (2, 3): -0.7}
        assert (space(chain).dim, space(chain).parity) == (4, -1)
        assert space({**chain, (2,): 1e-3}).space is None
        assert space(chain, qa.FieldOffsets.from_vectors(z=[0.0, 0.0, 1e-3])).space is None
        assert space(chain, qa.FieldOffsets.from_vectors(x=[0.0, 0.0, 0.4])).parity == -1
        # a free qubit's flip is the global flip: all-minus is all its space
        assert (space({}, n=1).dim, space({}, n=1).parity) == (1, -1)
        assert space({(1,): 0.5}, n=1).space is None


class TestEigenspectrum:
    def test_single_qubit_endpoints(self, linear):
        model = qa.IsingModel.from_terms({}, n_qubits=1)
        spec = qa.eigenspectrum(model, linear, [0.0, 1.0])
        assert np.allclose(spec.levels[0], [-1.0, 1.0], atol=1e-12)
        assert np.allclose(spec.levels[1], [0.0, 0.0], atol=1e-12)

    def test_levels_sorted(self, five_spin, circular):
        spec = qa.eigenspectrum(five_spin, circular, np.linspace(0, 1, 21))
        assert np.all(np.diff(spec.levels, axis=1) >= -1e-12)

    def test_level_continuity_bounded_by_operator_change(self, five_spin, circular):
        grid = np.linspace(0, 1, 41)
        spec = qa.eigenspectrum(five_spin, circular, grid)
        for k in range(len(grid) - 1):
            ha = qa.hamiltonian_at(five_spin, circular, grid[k])
            hb = qa.hamiltonian_at(five_spin, circular, grid[k + 1])
            bound = np.linalg.norm(hb - ha, 2)
            shift = np.abs(spec.levels[k + 1] - spec.levels[k]).max()
            assert shift <= bound + 1e-10

    def test_five_spin_gap_regression(self, five_spin, circular):
        spec = qa.eigenspectrum(five_spin, circular, np.linspace(0, 1, 101))
        s_min, gap = qa.minimum_gap(spec)
        # degenerate ground space closes the gap at the end of the anneal
        assert s_min == pytest.approx(1.0)
        assert gap == pytest.approx(0.0, abs=1e-10)
        gaps = spec.levels[:, 1] - spec.levels[:, 0]
        assert gaps[90] == pytest.approx(0.007861490923187553, abs=1e-9)

    def test_five_spin_levels_regression(self, five_spin, circular):
        spec = qa.eigenspectrum(five_spin, circular, [0.5])
        assert spec.levels[0][:3] == pytest.approx(
            [-4.70281473584625, -4.186786138652133, -4.038089005638407], abs=1e-9
        )

    @pytest.mark.parametrize("build", ["eigenspectrum", "hamiltonian_at"])
    def test_holds_only_its_result(self, circular, build):
        import tracemalloc

        # 9 qubits with offsets: one 512 x 512 plane is 2 MiB, the base stack
        # and a copy of it would be three more
        n = 9
        model = qa.IsingModel.from_terms({(i, i + 1): 1.0 for i in range(1, n)}, n_qubits=n)
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * n, z=[0.2] * n)
        run = {
            "eigenspectrum": lambda: qa.eigenspectrum(model, circular, [0.5], offsets),
            "hamiltonian_at": lambda: qa.hamiltonian_at(model, circular, 0.5, offsets),
        }[build]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 4**n

    def test_grid_validation(self, five_spin, circular):
        with pytest.raises(ValueError):
            qa.eigenspectrum(five_spin, circular, [])
        with pytest.raises(ValueError):
            qa.eigenspectrum(five_spin, circular, [0.0, 1.2])
        with pytest.raises(ValueError, match="finite"):
            qa.eigenspectrum(five_spin, circular, [0.0, float("nan")])


class TestBruteForce:
    def test_five_spin_ground_set(self, five_spin):
        energy, states = qa.brute_force_ground_states(five_spin)
        assert energy == pytest.approx(FIVE_SPIN_GROUND_ENERGY, abs=1e-12)
        indices = sorted(qa.spin_to_int(list(s)) for s in states)
        assert indices == list(FIVE_SPIN_GROUND_INDICES)
        assert tuple([1] * 5) in states
        assert tuple([-1] * 5) in states

    def test_single_field(self):
        energy, states = qa.brute_force_ground_states({(1,): 1.0})
        assert energy == -1.0
        assert states == {(-1,)}

    def test_empty_model_degenerate(self):
        energy, states = qa.brute_force_ground_states(qa.IsingModel.from_terms({}, n_qubits=2))
        assert energy == 0.0
        assert len(states) == 4
