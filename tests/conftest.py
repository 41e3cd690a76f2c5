import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import annealsim as qa

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

FIVE_SPIN_TERMS = {
    (1, 2): -1.0,
    (1, 3): -1.0,
    (1, 4): 1.0,
    (2, 3): -1.0,
    (2, 5): 1.0,
    (3, 4): -1.0,
    (3, 5): -1.0,
    (4, 5): -1.0,
}

# ground set of the five-spin example, as basis-state indices
FIVE_SPIN_GROUND_INDICES = (0, 3, 7, 24, 28, 31)
FIVE_SPIN_GROUND_ENERGY = -4.0


@pytest.fixture(scope="session")
def five_spin():
    return qa.IsingModel.from_terms(FIVE_SPIN_TERMS)


@pytest.fixture(scope="session")
def circular():
    return qa.builtin_schedule("circular")


@pytest.fixture(scope="session")
def linear():
    return qa.builtin_schedule("linear")


@pytest.fixture(scope="session")
def five_spin_baseline_tau100(five_spin, circular):
    """High-resolution order-4 surrogate for the exact state at tau=100."""
    return qa.simulate_fixed(five_spin, 100.0, circular, order=4, n_steps=100_000)


def random_model(rng: np.random.Generator, n_qubits: int) -> qa.IsingModel:
    terms = {}
    for i in range(1, n_qubits + 1):
        if rng.random() < 0.6:
            terms[(i,)] = float(rng.normal())
        for j in range(i + 1, n_qubits + 1):
            if rng.random() < 0.5:
                terms[(i, j)] = float(rng.normal())
    return qa.IsingModel.from_terms(terms, n_qubits=n_qubits)


def base_operators(model, schedule, offsets=None):
    """The full-space base operators of a run; ``.run_space()`` gives the
    space it propagates on, as :func:`annealsim.simulate_fixed` prepares it."""
    from annealsim.hamiltonian import _BaseOperators

    model = qa.IsingModel.from_terms(model)
    return _BaseOperators(model.n_qubits, schedule.driver_sign, qa.ising_diagonal(model),
                          offsets)


def sector_isometry(n_qubits: int, parity: int) -> np.ndarray:
    """The (2**n, 2**(n-1)) isometry P whose column r is
    (|r> + parity |~r>) / sqrt(2), ~r flipping all n bits."""
    dim = 1 << n_qubits
    half = np.arange(dim // 2)
    iso = np.zeros((dim, dim // 2))
    iso[half, half] = 1.0
    iso[dim - 1 - half, half] = parity
    return iso / np.sqrt(2.0)
