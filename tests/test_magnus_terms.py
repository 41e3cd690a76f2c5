import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa
from conftest import base_operators, orbit_isometry


def random_antihermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m - m.conj().T)


def random_quadratic(rng, dim):
    return qa.MatrixPolynomial([random_antihermitian(rng, dim) for _ in range(3)])


def gauss_legendre_omega2(poly):
    """Independent quadrature evaluation of the second series term.

    Computes (1/2) * int_0^1 du1 int_0^u1 du2 [P(u1), P(u2)] with 64-node
    Gauss-Legendre rules on both levels, never touching the closed-form path.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    dim = poly.dim
    total = np.zeros((dim, dim), dtype=complex)
    for x1, w1 in zip(nodes, weights):
        u1 = 0.5 * (x1 + 1.0)
        p1 = poly(u1)
        inner = np.zeros_like(total)
        for x2, w2 in zip(nodes, weights):
            u2 = 0.5 * u1 * (x2 + 1.0)
            p2 = poly(u2)
            inner += (0.5 * u1 * w2) * (p1 @ p2 - p2 @ p1)
        total += (0.5 * w1) * inner
    return 0.5 * total


def _com(a, b):
    return a @ b - b @ a


def _third_term_integrand(p1, p2, p3):
    return _com(p1, _com(p2, p3)) + _com(p3, _com(p2, p1))


def _fourth_term_integrand(p1, p2, p3, p4):
    return (
        _com(_com(_com(p1, p2), p3), p4)
        + _com(p1, _com(_com(p2, p3), p4))
        + _com(p1, _com(p2, _com(p3, p4)))
        + _com(p2, _com(p3, _com(p4, p1)))
    )


def gauss_legendre_nested(poly, integrand, depth, prefactor, nodes=8):
    """Time-ordered iterated integral evaluated purely by quadrature.

    Recursively applies a Gauss-Legendre rule to each level of
    int_0^1 du1 int_0^u1 du2 ... of the given nested-commutator integrand.
    The integrand is polynomial in every variable, so eight nodes per level
    integrate it exactly up to roundoff.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    dim = poly.dim

    def level(values, upper):
        if len(values) == depth:
            return integrand(*values)
        total = np.zeros((dim, dim), dtype=complex)
        for xi, wi in zip(x, w):
            u = 0.5 * upper * (xi + 1.0)
            total += (0.5 * upper * wi) * level(values + [poly(u)], u)
        return total

    return prefactor * level([], 1.0)


class TestMatrixPolynomial:
    def test_evaluation(self):
        poly = qa.MatrixPolynomial([np.eye(2), 2 * np.eye(2)])
        assert np.allclose(poly(0.5), 2.0 * np.eye(2))

    def test_commutator_degree_and_value(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        p = qa.MatrixPolynomial([x])
        q = qa.MatrixPolynomial([np.zeros((2, 2)), z])
        c = p.commutator(q)
        assert c.degree == 1
        assert np.allclose(c.coefficients[1], x @ z - z @ x)

    def test_antiderivative(self):
        poly = qa.MatrixPolynomial([np.eye(2), np.eye(2)])
        anti = poly.antiderivative()
        assert np.allclose(anti(1.0), 1.5 * np.eye(2))
        assert np.allclose(anti(0.0), np.zeros((2, 2)))

    def test_trailing_zero_trim(self):
        poly = qa.MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
        assert poly.degree == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            qa.MatrixPolynomial([np.zeros((2, 3))])
        with pytest.raises(ValueError):
            qa.MatrixPolynomial([np.eye(2), np.eye(3)])


class TestOmegaTerms:
    def test_time_independent_generator(self):
        rng = np.random.default_rng(3)
        c0 = random_antihermitian(rng, 4)
        poly = qa.MatrixPolynomial([c0])
        terms = qa.omega_explicit4(poly, upto=4)
        assert np.allclose(terms[0].matrix, c0, atol=1e-14)
        for term in terms[1:]:
            assert np.abs(term.matrix).max() <= 1e-14

    def test_commuting_coefficients_kill_second_term(self):
        rng = np.random.default_rng(4)
        c0 = random_antihermitian(rng, 3)
        poly = qa.MatrixPolynomial([c0, 0.7 * c0, -0.2 * c0])
        terms = qa.omega_explicit4(poly, upto=2)
        assert np.abs(terms[1].matrix).max() <= 1e-14

    def test_omega2_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            poly = random_quadratic(rng, 2)
            explicit = qa.omega_explicit4(poly, upto=2)[1].matrix
            assert np.abs(explicit - gauss_legendre_omega2(poly)).max() <= 1e-12

    def test_recursive_omega2_matches_quadrature(self):
        rng = np.random.default_rng(6)
        poly = random_quadratic(rng, 2)
        recursive = qa.omega_recursive(poly, 2)[1].matrix
        assert np.abs(recursive - gauss_legendre_omega2(poly)).max() <= 1e-12

    def test_omega3_against_quadrature(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            poly = random_quadratic(rng, 2)
            explicit = qa.omega_explicit4(poly, upto=3)[2].matrix
            oracle = gauss_legendre_nested(poly, _third_term_integrand, 3, 1.0 / 6.0)
            assert np.abs(explicit - oracle).max() <= 1e-12

    def test_omega4_against_quadrature(self):
        rng = np.random.default_rng(15)
        for _ in range(2):
            poly = random_quadratic(rng, 2)
            explicit = qa.omega_explicit4(poly, upto=4)[3].matrix
            oracle = gauss_legendre_nested(poly, _fourth_term_integrand, 4, 1.0 / 12.0)
            assert np.abs(explicit - oracle).max() <= 1e-12

    def test_first_terms_agree_across_paths(self):
        rng = np.random.default_rng(7)
        poly = random_quadratic(rng, 4)
        explicit = qa.omega_explicit4(poly, upto=1)[0].matrix
        recursive = qa.omega_recursive(poly, 1)[0].matrix
        assert np.allclose(explicit, recursive, atol=1e-14)

    def test_cross_path_sample(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            for dim in (2, 4):
                poly = random_quadratic(rng, dim)
                explicit = qa.omega_explicit4(poly, upto=4)
                recursive = qa.omega_recursive(poly, 4)
                for a, b in zip(explicit, recursive):
                    assert np.abs(a.matrix - b.matrix).max() <= 1e-11

    def test_terms_stay_antihermitian(self):
        rng = np.random.default_rng(9)
        poly = random_quadratic(rng, 4)
        for term in qa.omega_recursive(poly, 6):
            defect = np.abs(term.matrix + term.matrix.conj().T).max()
            assert defect <= 1e-12

    def test_degree_guard_on_explicit_path(self):
        poly = qa.MatrixPolynomial([np.eye(2)] * 4)
        with pytest.raises(qa.SolverConfigError):
            qa.omega_explicit4(poly)

    def test_order_guards(self):
        poly = qa.MatrixPolynomial([np.eye(2)])
        with pytest.raises(qa.SolverConfigError):
            qa.omega_recursive(poly, 9)
        with pytest.raises(qa.SolverConfigError):
            qa.omega_recursive(poly, 0)
        with pytest.raises(qa.SolverConfigError):
            qa.omega_explicit4(poly, upto=5)


class TestExponentiation:
    def test_zero_gives_identity(self):
        assert np.allclose(qa.exponentiate_omega(np.zeros((3, 3))), np.eye(3))

    def test_pauli_x_rotation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        u = qa.exponentiate_omega(-0.5j * np.pi * x)
        assert np.allclose(u, -1j * x, atol=1e-14)

    def test_unitary_for_random_input(self):
        rng = np.random.default_rng(10)
        omega = random_antihermitian(rng, 16)
        u = qa.exponentiate_omega(omega)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() <= 1e-13

    def test_rejects_non_antihermitian(self):
        with pytest.raises(qa.NumericalError):
            qa.exponentiate_omega(np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qa.exponentiate_omega(np.zeros((2, 3)))


class TestStepPolynomial:
    def test_constant_schedule_single_coefficient(self):
        sched = qa.schedule_from_functions(lambda s: 0.0, lambda s: 1.0)
        model = qa.IsingModel.from_terms({(1,): 1.0})
        tau, t0, t1 = 2.0, 0.5, 1.0
        poly = qa.build_step_polynomial(model, sched, None, tau, t0, t1)
        assert poly.degree == 0
        width = (t1 - t0) / tau
        expected = -1j * tau * width * np.diag(qa.ising_diagonal(model))
        assert np.allclose(poly.coefficients[0], expected, atol=1e-14)

    def test_linear_schedule_is_degree_one(self, linear):
        model = qa.IsingModel.from_terms({(1,): 1.0})
        poly = qa.build_step_polynomial(model, linear, None, 1.0, 0.25, 0.5)
        assert poly.degree == 1

    def test_circular_fit_residual_small_step(self, circular):
        model = qa.IsingModel.from_terms({(1,): 1.0})
        tau = 1.0
        t0, t1 = 0.40, 0.41
        poly = qa.build_step_polynomial(model, circular, None, tau, t0, t1)
        width = t1 - t0
        scale = np.abs(poly(0.0)).max()
        for u in (0.13, 0.77):
            s = t0 + u * width
            exact = -1j * tau * width * qa.hamiltonian_at(model, circular, s)
            assert np.abs(poly(u) - exact).max() <= 1e-7 * max(scale, 1e-30)

    def test_interval_validation(self, circular):
        model = qa.IsingModel.from_terms({(1,): 1.0})
        with pytest.raises(ValueError):
            qa.build_step_polynomial(model, circular, None, 1.0, 0.6, 0.5)

    def test_engine_matches_explicit_path(self, five_spin, circular):
        from annealsim.magnus import _StepEngine, _step_grid

        # on the full space; the sector case follows
        engine = _StepEngine(base_operators(five_spin, circular), circular)
        assert engine.dim == 32
        starts, widths = _step_grid(16, ())
        batch = engine.generators(engine.weights(starts, widths, 3.0))
        for k in (0, 7, 15):
            poly = qa.build_step_polynomial(
                five_spin, circular, None, 3.0, starts[k] * 3.0, (starts[k] + widths[k]) * 3.0
            )
            direct = qa.omega_total(qa.omega_explicit4(poly, 4))
            assert np.abs(direct - batch[k]).max() <= 1e-12

    @pytest.mark.parametrize("sign, parity", [(1, -1), (-1, 1)])
    def test_sector_engine_matches_explicit_path(self, five_spin, sign, parity):
        # all-minus on five qubits is odd under the global flip, all-plus even;
        # the orbit space comes from a brute-force search over every signed
        # permutation, not from the code under test
        from annealsim.magnus import _StepEngine, _step_grid

        sched = qa.builtin_schedule("circular", driver_sign=sign)
        engine = _StepEngine(base_operators(five_spin, sched).run_space(), sched)
        iso, order = orbit_isometry(five_spin, None, sign)
        assert (engine.bases.parity, engine.dim, engine.bases.symmetry_order) == (parity, 7, 8)
        assert (iso.shape, order) == ((32, 7), 8)
        starts, widths = _step_grid(16, ())
        batch = engine.generators(engine.weights(starts, widths, 3.0))
        for k in (0, 7, 15):
            poly = qa.build_step_polynomial(
                five_spin, sched, None, 3.0, starts[k] * 3.0, (starts[k] + widths[k]) * 3.0
            )
            direct = qa.omega_total(qa.omega_explicit4(poly, 4))
            assert np.abs(iso.T @ direct @ iso - batch[k]).max() <= 1e-12


class TestBatchedEngine:
    """The batched engine carries every order; the reference pair checks it."""

    @pytest.fixture(scope="class")
    def offset_chain(self):
        model = qa.IsingModel.from_terms({(1, 2): -0.8, (2, 3): 0.6, (1,): 0.3, (3,): -0.5})
        offsets = qa.FieldOffsets.from_vectors(x=[0.2, -0.1, 0.15], z=[0.05, 0.1, -0.2],
                                               n_qubits=3)
        return model, offsets

    @pytest.mark.parametrize("schedule", [("circular", 1), ("dw_quadratic", -1)])
    @pytest.mark.parametrize("order", range(1, 9))
    def test_engine_matches_recursive_path(self, offset_chain, schedule, order):
        from annealsim.magnus import _StepEngine, _step_grid

        model, offsets = offset_chain
        sched = qa.builtin_schedule(schedule[0], driver_sign=schedule[1])
        tau = 3.0
        engine = _StepEngine(base_operators(model, sched, offsets).run_space(), sched, order)
        assert engine.bases.count == 3
        starts, widths = _step_grid(8, sched.kinks)
        batch = engine.generators(engine.weights(starts, widths, tau))
        for k in range(starts.size):
            poly = qa.build_step_polynomial(
                model, sched, offsets, tau, starts[k] * tau, (starts[k] + widths[k]) * tau
            )
            direct = qa.omega_total(qa.omega_recursive(poly, order))
            # rounding of the word expansion grows with the step's |Omega|:
            # against extended precision it is 3e-15 relative at |Omega| ~ 1 and
            # 1.2e-12 at |Omega| ~ 2000 (order 8, dw_quadratic), where the
            # recursive path stays near 1e-15
            scale = np.abs(direct).max()
            assert np.abs(direct - batch[k]).max() <= 1e-14 * max(1.0, scale) * scale

    def test_series_weights_match_explicit_tables(self):
        from annealsim.magnus import _omega_weight_table, _series_weights

        tables = _series_weights(4)
        for k in range(1, 5):
            dense = np.zeros((3,) * k)
            for word, weight in _omega_weight_table(k).items():
                dense[word] = weight
            assert np.abs(tables[k - 1] - dense).max() <= 1e-15


class TestMemoryPreflight:
    def test_oversized_engine_raises_before_allocating(self, circular, monkeypatch):
        import time

        import annealsim.hamiltonian as hamiltonian_mod

        # the Krylov path's buffers take 2.9 GiB here, its widest trie level
        # 3**7 * 2**16 * 16 bytes; pin the limit below that so the outcome
        # does not depend on the machine
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 2 << 30)
        chain = {(i, i + 1): 1.0 for i in range(1, 16)}
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * 16, z=[0.1] * 16, n_qubits=16)
        start = time.perf_counter()
        with pytest.raises(qa.SizeError, match="16 qubits at order 8 with 3 base operators"):
            qa.simulate_fixed(chain, 1.0, circular, order=8, n_steps=1, offsets=offsets)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("with_offsets", [False, True])
    @pytest.mark.parametrize("order", [1, 4, 8])
    def test_estimate_matches_cache(self, circular, with_offsets, order):
        from annealsim.magnus import _engine_bytes, _StepEngine

        model = qa.IsingModel.from_terms({(1, 2): 1.0, (2, 3): -1.0})
        offsets = (
            qa.FieldOffsets.from_vectors(x=[0.1] * 3, z=[0.2] * 3, n_qubits=3)
            if with_offsets else None
        )
        engine = _StepEngine(base_operators(model, circular, offsets).run_space(), circular,
                             order)
        nb = engine.bases.count
        # the Z offsets keep the full space; the bare chain runs on the 3
        # orbits of its reflection and the global flip
        assert engine.dim == (8 if with_offsets else 3)
        cache_bytes, _ = _engine_bytes(engine.dim, nb, order, 1)
        assert engine.products.nbytes == cache_bytes
        # the bases lead the cache
        assert np.array_equal(engine.products[:nb], engine.bases.dense().reshape(nb, -1))

    @pytest.mark.parametrize("run", [qa.simulate_fixed, qa.simulate_reference_rk])
    def test_allocation_failure_is_a_size_error(self, circular, monkeypatch, run):
        from annealsim.hamiltonian import _BaseOperators

        def fail(self):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(_BaseOperators, "dense", fail)
        with pytest.raises(qa.SizeError, match="out of memory"):
            run(qa.coupled_pair_model(), 1.0, circular, n_steps=4)


    @pytest.mark.parametrize("build", [
        lambda chain, schedule: qa.hamiltonian_at(chain, schedule, 0.5),
        lambda chain, schedule: qa.eigenspectrum(chain, schedule, [0.0, 0.5, 1.0]),
        lambda chain, schedule: qa.transverse_matrix(chain.n_qubits),
        lambda chain, schedule: qa.build_step_polynomial(chain, schedule, None, 1.0, 0.0, 0.5),
    ], ids=["hamiltonian_at", "eigenspectrum", "transverse_matrix", "build_step_polynomial"])
    def test_dense_builds_are_sized(self, circular, monkeypatch, build):
        import annealsim.hamiltonian as hamiltonian_mod
        from annealsim.hamiltonian import _BaseOperators

        # 8 qubits: a 512 KiB plane against a 64 KiB limit, refused before
        # any plane is built
        chain = qa.IsingModel.from_terms({(i, i + 1): 1.0 for i in range(1, 8)})
        with monkeypatch.context() as patch:
            patch.setattr(hamiltonian_mod, "_memory_limit", lambda: 1 << 16)
            patch.setattr(_BaseOperators, "dense",
                          lambda self, weights=None: pytest.fail("allocated"))
            with pytest.raises(qa.SizeError, match="8 qubits in .* need"):
                build(chain, circular)

        def fail(self, weights=None):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(_BaseOperators, "dense", fail)
        with pytest.raises(qa.SizeError, match="out of memory at 8 qubits"):
            build(chain, circular)

    def test_step_grid_is_sized(self, circular, monkeypatch):
        import time

        import annealsim.hamiltonian as hamiltonian_mod

        # 2e9 steps: 64 GB of step grid against a pinned 4 GiB limit
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 4 << 30)
        start = time.perf_counter()
        with pytest.raises(qa.SizeError, match="2 qubits at order 4 with 2 base operators need"):
            qa.simulate_fixed({(1, 2): -1.0}, 1.0, circular, n_steps=2_000_000_000)
        assert time.perf_counter() - start < 1.0

    def test_spectrum_levels_are_sized(self, circular, monkeypatch):
        import annealsim.hamiltonian as hamiltonian_mod
        from annealsim.hamiltonian import _BaseOperators

        # 10 qubits at 10,000 points: 82 MB of levels against a 64 MiB limit,
        # which a chunk of four planes and the eigensolver's copy, 42 MB, fit
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 64 << 20)
        monkeypatch.setattr(_BaseOperators, "dense",
                            lambda self, weights=None: pytest.fail("allocated"))
        chain = {(i, i + 1): 1.0 for i in range(1, 10)}
        with pytest.raises(qa.SizeError, match="10 qubits in a spectrum need"):
            qa.eigenspectrum(chain, circular, np.linspace(0.0, 1.0, 10_000))

    # a 3-qubit chain runs dense on its 3 orbits, a 9-qubit one by Krylov on
    # the 256 states of its flip sector
    @pytest.mark.parametrize("run", [
        lambda schedule: qa.simulate_fixed({(1, 2): 1.0, (2, 3): -1.0}, 1.0, schedule,
                                           n_steps=4),
        lambda schedule: qa.simulate_fixed({(i, i + 1): 1.0 for i in range(1, 9)}, 1.0,
                                           schedule, n_steps=4),
        lambda schedule: qa.simulate_reference_rk({(1, 2): 1.0, (2,): 0.5}, 1.0, schedule,
                                                  n_steps=4),
        lambda schedule: qa.eigenspectrum({(1, 2): 1.0}, schedule, [0.0, 0.5, 1.0]),
        lambda schedule: qa.hamiltonian_at({(1, 2): 1.0}, schedule, 0.5),
        lambda schedule: qa.transverse_matrix(3),
        lambda schedule: qa.build_step_polynomial({(1, 2): 1.0}, schedule, None, 1.0, 0.0, 0.5),
    ], ids=["simulate_fixed", "simulate_fixed_krylov", "simulate_reference_rk",
            "eigenspectrum", "hamiltonian_at", "transverse_matrix", "build_step_polynomial"])
    def test_each_call_reads_the_limit_once(self, circular, monkeypatch, run, request):
        # the first run on a symmetric model reads it once more, for the
        # build of its space: on the 9-qubit chain that build drops the
        # orbits of the whole group, which cut the states less than 4-fold,
        # for the sector of the global flip under the same gate; later runs
        # find that space cached
        import annealsim.hamiltonian as hamiltonian_mod

        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        reads = []
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit",
                            lambda: reads.append(None) or 1 << 30)
        run(circular)
        assert len(reads) == (2 if request.node.callspec.id.startswith("simulate_fixed") else 1)
        reads.clear()
        run(circular)
        assert len(reads) == 1

    def test_short_run_is_sized_by_its_steps(self, circular, monkeypatch):
        import annealsim.hamiltonian as hamiltonian_mod

        # 6 qubits at order 8 with offsets, on the 36 orbits of the chain's
        # reflection: a 102 MB product cache and, for 2 steps, a working set
        # under 1 MB; the estimate charges a run for the steps it takes, up to
        # one chunk
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 500 * 10**6)
        chain = {(i, i + 1): 1.0 for i in range(1, 6)}
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * 6, z=[0.1] * 6, n_qubits=6)
        result = qa.simulate_fixed(chain, 1.0, circular, order=8, n_steps=2, offsets=offsets)
        assert result.metadata["propagator"] == "dense"
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        from annealsim.magnus import _chunk_steps, _engine_bytes

        chunk = _chunk_steps(1 << 12, 8)
        assert _engine_bytes(64, 3, 8, 2)[1] < _engine_bytes(64, 3, 8, chunk)[1]
        assert _engine_bytes(64, 3, 8, chunk)[1] == _engine_bytes(64, 3, 8, 10**6)[1]

    # a chain has the orbits of its reflection and the global flip: 36 of
    # them run dense at 7 qubits, while 136 of 512 at 9 cut the states less
    # than 4-fold, so that run is Krylov on the 256 states of the global
    # flip's sector; a 13-qubit ring runs Krylov on 190 orbits.  The space
    # is built, under its own gate, before the limit is lowered.
    @pytest.mark.parametrize("shape, n_qubits, sized_as", [
        ("chain", 7, []), ("chain", 9, [(256, 2, 4)]), ("ring", 13, [(190, 2, 4)])])
    def test_either_path_refuses_what_exceeds_the_limit(self, circular, monkeypatch, shape,
                                                        n_qubits, sized_as):
        import annealsim.hamiltonian as hamiltonian_mod
        import annealsim.magnus as magnus_mod

        model = {(i, i + 1): 1.0 for i in range(1, n_qubits)}
        if shape == "ring":
            model[(1, n_qubits)] = 1.0
        base_operators(model, circular).run_space()
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 1 << 16)
        krylov_bytes, sized = magnus_mod._krylov_bytes, []
        monkeypatch.setattr(magnus_mod, "_krylov_bytes",
                            lambda *args: sized.append(args) or krylov_bytes(*args))
        with pytest.raises(qa.SizeError, match=f"{n_qubits} qubits at order 4 with 2 base"):
            qa.simulate_fixed(model, 1.0, circular, n_steps=1)
        assert sized == sized_as

    def test_orbit_space_is_sized_before_it_is_built(self, circular, monkeypatch):
        # 12 qubits: the images of 2 generators, 9 working arrays and a
        # table and its weights for each of 24 flips, 1.9 MB against 64 KiB
        import annealsim.hamiltonian as hamiltonian_mod

        monkeypatch.setattr(hamiltonian_mod, "_ORBIT_SPACES", {})
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 1 << 16)
        monkeypatch.setattr(hamiltonian_mod, "orbit_labels",
                            lambda *args: pytest.fail("allocated"))
        chain = {(i, i + 1): 1.0 for i in range(1, 12)}
        offsets = qa.FieldOffsets.from_vectors(x=[0.1] * 12, n_qubits=12)
        with pytest.raises(qa.SizeError,
                           match="12 qubits in the orbits of 2 symmetries need 1933312 bytes"):
            qa.simulate_fixed(chain, 1.0, circular, n_steps=1, offsets=offsets)

    def test_rk_reference_refuses_what_exceeds_the_limit(self, circular, monkeypatch):
        import annealsim.hamiltonian as hamiltonian_mod
        from annealsim.hamiltonian import _BaseOperators

        # 8 qubits: a 1 MB real base stack against a 64 KiB limit, refused
        # before the stack is built
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 1 << 16)
        monkeypatch.setattr(_BaseOperators, "dense", lambda self: pytest.fail("allocated"))
        chain = {(i, i + 1): 1.0 for i in range(1, 8)}
        with pytest.raises(qa.SizeError, match="8 qubits at order 4 with 2 base"):
            qa.simulate_reference_rk(chain, 1.0, circular, n_steps=1)

    def test_sector_run_is_sized_on_its_sector(self, circular, monkeypatch):
        import annealsim.hamiltonian as hamiltonian_mod

        # a 6-qubit chain at order 8: a 16.7 MB product cache on the full
        # space, 1.6 MB on the 20 orbits of its reflection and the global flip
        monkeypatch.setattr(hamiltonian_mod, "_memory_limit", lambda: 8 * 10**6)
        chain = {(i, i + 1): 1.0 for i in range(1, 6)}
        result = qa.simulate_fixed(chain, 1.0, circular, order=8, n_steps=2)
        assert result.metadata["flip_sector"] == 1
        from annealsim.hamiltonian import _BaseOperators

        monkeypatch.setattr(_BaseOperators, "run_space", lambda self: self)
        with pytest.raises(qa.SizeError, match="6 qubits at order 8 with 2 base"):
            qa.simulate_fixed(chain, 1.0, circular, order=8, n_steps=2)

    def test_krylov_estimate_counts_basis_and_trie(self):
        from annealsim.magnus import _KRYLOV_MAX_DIM, _krylov_bytes

        # the trie stops at words of length order - 1: 2.9 GiB at 16 qubits,
        # order 8 with offsets, where words of length 8 took 8.6 GiB
        assert 3**7 * 2**16 * 16 <= _krylov_bytes(1 << 16, 3, 8) < 3 * 2**30
        assert _krylov_bytes(512, 2, 4) == 16 * 512 * (_KRYLOV_MAX_DIM + 3 + 2 + 2**3 + 2**2)
        assert _krylov_bytes(512, 3, 1) == 16 * 512 * (_KRYLOV_MAX_DIM + 3 + 3)

    def test_limit_is_the_least_of_memory_rlimit_and_cgroup(self, monkeypatch, tmp_path):
        import annealsim.hamiltonian as hamiltonian_mod

        resource = pytest.importorskip("resource")
        cgroup = tmp_path / "memory.max"
        monkeypatch.setattr(hamiltonian_mod, "_CGROUP_MEMORY_MAX", cgroup)
        monkeypatch.setattr(hamiltonian_mod, "_PHYSICAL_MEMORY", 8 << 30)
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
        assert hamiltonian_mod._memory_limit() == 8 << 30  # no cgroup file, no rlimit
        cgroup.write_text("max\n")
        assert hamiltonian_mod._memory_limit() == 8 << 30
        cgroup.write_text("3221225472\n")
        assert hamiltonian_mod._memory_limit() == 3 << 30
        monkeypatch.setattr(resource, "getrlimit", lambda which: (1 << 30, resource.RLIM_INFINITY))
        assert hamiltonian_mod._memory_limit() == 1 << 30


class TestErrorMetrics:
    def test_identical(self):
        rho = np.eye(2) / 2
        assert qa.error_max(rho, rho) == 0.0
        assert qa.error_mean(rho, rho) == 0.0

    def test_single_entry_difference(self):
        a = np.zeros((2, 2))
        b = a.copy()
        b[0, 1] = 0.1
        assert qa.error_max(a, b) == pytest.approx(0.1)
        assert qa.error_mean(a, b) == pytest.approx(0.025)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qa.error_max(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("block", [1 << 18, 5])
    def test_state_vectors_compare_as_their_density_matrices(self, monkeypatch, block):
        import annealsim.magnus as magnus_mod

        monkeypatch.setattr(magnus_mod, "_COMPARE_BLOCK", block)
        rng = np.random.default_rng(5)
        psi, phi = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
        psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
        rho, sigma = np.outer(psi, psi.conj()), np.outer(phi, phi.conj())
        assert qa.error_max(psi, phi) == pytest.approx(qa.error_max(rho, sigma), rel=1e-15)
        assert qa.error_mean(psi, phi) == pytest.approx(qa.error_mean(rho, sigma), rel=1e-14)
        assert qa.error_max(psi, psi * 1j) <= 1e-15  # a global phase is no difference
        with pytest.raises(ValueError):
            qa.error_max(psi, rho)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_mean_bounded_by_max(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        assert qa.error_mean(a, b) <= qa.error_max(a, b) + 1e-15
