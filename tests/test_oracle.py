import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsim as qa
from annealsim.oracle import SIGMA_X, SIGMA_Y, SIGMA_Z

MINUS_PROJECTOR = 0.5 * (np.eye(2) - SIGMA_X)


def random_density_matrix(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestRhoH1:
    def test_initial_state_is_driver_ground_state(self):
        for tau in (0.5, 3.0, 100.0):
            assert np.abs(qa.rho_h1(0.0, tau) - MINUS_PROJECTOR).max() <= 1e-14

    def test_pure_state_invariants_random_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = rng.uniform(0.0, 1.0)
            tau = rng.uniform(1e-6, 100.0)
            rho = qa.rho_h1(s, tau)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            bloch = [np.trace(rho @ p).real for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
            assert abs(sum(b * b for b in bloch) - 1.0) <= 1e-12

    def test_matches_independent_integrator_mid_evolution(self, circular):
        # cross-check at interior times, not just the endpoint
        model = qa.single_field_model()
        tau = 4.0
        for s in (0.3, 0.75, 1.0):
            sub = qa.schedule_from_functions(
                lambda u, s=s: float(circular.A(u * s)), lambda u, s=s: float(circular.B(u * s))
            )
            rk = qa.simulate_reference_rk(model, tau * s, sub, n_steps=20_000)
            assert qa.trace_distance(rk.rho, qa.rho_h1(s, tau)) <= 1e-9

    def test_matches_magnus_endpoint(self, circular):
        result = qa.simulate_fixed(qa.single_field_model(), 100.0, circular,
                                   order=4, n_steps=16_384)
        assert qa.trace_distance(result.rho, qa.rho_h1(1.0, 100.0)) <= 1e-11

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            qa.rho_h1(1.5, 1.0)
        with pytest.raises(ValueError):
            qa.rho_h1(0.5, 0.0)


class TestPsiH2:
    def test_initial_state_is_product_of_minus(self):
        for tau in (0.5, 7.0, 100.0):
            assert np.abs(qa.psi_h2(0.0, tau) - np.array([0.5, -0.5, -0.5, 0.5])).max() <= 1e-14

    def test_unit_norm_random_arguments(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            psi = qa.psi_h2(rng.uniform(0, 1), rng.uniform(1e-6, 100.0))
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_density_matrix_is_rank_one(self):
        rho = qa.rho_h2(0.7, 13.0)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert eigs[-2] <= 1e-12

    def test_initial_density_matrix_is_product_state(self):
        expected = np.kron(MINUS_PROJECTOR, MINUS_PROJECTOR)
        assert np.abs(qa.rho_h2(0.0, 5.0) - expected).max() <= 1e-14

    def test_matches_magnus_endpoint(self, circular):
        result = qa.simulate_fixed(qa.coupled_pair_model(), 50.0, circular,
                                   order=4, n_steps=8192)
        assert qa.trace_distance(result.rho, qa.rho_h2(1.0, 50.0)) <= 1e-11


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
@pytest.mark.parametrize("closed_form", [qa.rho_h1, qa.psi_h2, qa.rho_h2])
def test_non_finite_tau_is_refused(closed_form, tau):
    # a NaN tau passes "tau <= 0" and would give an all-NaN state
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        closed_form(0.5, tau)


class TestOracleHamiltonians:
    def test_single_qubit_endpoints(self):
        assert np.allclose(qa.hamiltonian_h1(0.0), SIGMA_X)
        assert np.allclose(qa.hamiltonian_h1(1.0), SIGMA_Z)

    def test_two_qubit_midpoint(self):
        eye = np.eye(2)
        expected = (np.sqrt(2) / 2) * (np.kron(eye, SIGMA_X) + np.kron(SIGMA_X, eye)) + (
            np.sqrt(2) / 2
        ) * 2.0 * np.kron(SIGMA_Z, SIGMA_Z)
        assert np.abs(qa.hamiltonian_h2(0.5) - expected).max() <= 1e-14

    @pytest.mark.parametrize("s", [0.0, 0.2, 0.55, 1.0])
    def test_agree_with_model_assembly(self, s, circular):
        h1 = qa.hamiltonian_at(qa.single_field_model(), circular, s)
        assert np.abs(h1 - qa.hamiltonian_h1(s)).max() <= 1e-14
        h2 = qa.hamiltonian_at(qa.coupled_pair_model(), circular, s)
        assert np.abs(h2 - qa.hamiltonian_h2(s)).max() <= 1e-14


class TestTraceDistance:
    def test_identical_states(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert qa.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert qa.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_diagonal_example(self):
        assert qa.trace_distance(np.diag([0.6, 0.4]), np.diag([0.5, 0.5])) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qa.trace_distance(np.eye(2), np.eye(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(rng, 4)
        b = random_density_matrix(rng, 4)
        c = random_density_matrix(rng, 4)
        dab = qa.trace_distance(a, b)
        assert dab >= 0.0
        assert dab == pytest.approx(qa.trace_distance(b, a), abs=1e-12)
        assert qa.trace_distance(a, a) <= 1e-12
        assert dab <= qa.trace_distance(a, c) + qa.trace_distance(c, b) + 1e-10


class TestOracleVersusSolver:
    def test_error_shrinks_with_step_count_until_floor(self, circular):
        model = qa.single_field_model()
        target = qa.rho_h1(1.0, 2.0)
        distances = [
            qa.trace_distance(
                qa.simulate_fixed(model, 2.0, circular, order=4, n_steps=n).rho, target
            )
            for n in (8, 16, 32, 64, 128)
        ]
        for coarse, fine in zip(distances, distances[1:]):
            if coarse > 1e-13:
                assert fine <= coarse
