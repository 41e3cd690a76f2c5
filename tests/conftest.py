import itertools

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
    return _BaseOperators(model, schedule.driver_sign, qa.ising_diagonal(model),
                          offsets)


def orbit_isometry(model, offsets=None, driver_sign=1) -> tuple[np.ndarray, int]:
    """The (2**n, k) isometry onto the space a run propagates on, and the
    order of the model's symmetry group, both by brute force.

    Every signed permutation ``(pi, s)`` of the qubits is tried on the terms
    and offsets; those that keep them form the group ``G``.  Column ``r`` is
    the normalized sum of ``chi(g) |g v>`` over ``G``, ``v`` the smallest
    state of an orbit, ``chi(g)`` being 1 under all-plus (driver sign -1)
    and ``(-1)**|m|`` under all-minus, so an orbit whose phases cancel has no
    column.  Columns are ordered by ``v``.  For n qubits this tries
    ``n! 2**n`` candidates.
    """
    model = qa.IsingModel.from_terms(model)
    n = model.n_qubits
    J, h = np.zeros((n, n)), np.zeros(n)
    for key, coeff in model.terms.items():
        if len(key) == 1:
            h[key[0] - 1] = coeff
        else:
            J[key[0] - 1, key[1] - 1] = J[key[1] - 1, key[0] - 1] = coeff
    x = np.zeros(n) if offsets is None else np.array(offsets.x)
    z = np.zeros(n) if offsets is None else np.array(offsets.z)
    states = np.arange(1 << n)
    group = []
    for perm in itertools.permutations(range(n)):
        perm = list(perm)
        for signs in itertools.product((1.0, -1.0), repeat=n):
            s = np.array(signs)
            if (np.array_equal(J[np.ix_(perm, perm)], J * np.outer(s, s))
                    and np.array_equal(h[perm], s * h) and np.array_equal(x[perm], x)
                    and np.array_equal(z[perm], s * z)):
                mask = sum(1 << perm[i] for i in range(n) if s[i] < 0)
                image = sum(((states >> i) & 1) << perm[i] for i in range(n)) ^ mask
                odd = bin(mask).count("1") % 2
                group.append((image, -1.0 if driver_sign == 1 and odd else 1.0))
    columns, seen = [], np.zeros(1 << n, bool)
    for v in states:
        if seen[v]:
            continue
        column = np.zeros(1 << n)
        for image, chi in group:
            column[image[v]] += chi
            seen[image[v]] = True
        if column.any():
            columns.append(column / np.linalg.norm(column))
    return np.array(columns).T, len(group)
