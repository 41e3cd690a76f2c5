"""Closed-form solutions of two small annealing problems, for validation.

Both problems use the trigonometric envelope pair ``A = cos(pi s / 2)``,
``B = sin(pi s / 2)`` and start from the ground state of the driver:

* one qubit with a unit longitudinal field, solvable in a frame co-rotating
  with the field axis;
* two qubits with a single coupling of strength 2, solvable in the
  exchange-symmetric subspace.

The exact states let the propagator be checked down to the double-precision
floor without any reference integrator in the loop.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import IsingModel

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_args(s: float, tau: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


def single_field_model() -> IsingModel:
    """One qubit with field strength 1; pairs with the circular schedule."""
    return IsingModel.from_terms({(1,): 1.0})


def coupled_pair_model() -> IsingModel:
    """Two qubits with coupling strength 2; pairs with the circular schedule."""
    return IsingModel.from_terms({(1, 2): 2.0})


def hamiltonian_h1(s: float) -> np.ndarray:
    """cos(pi s/2) X + sin(pi s/2) Z."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    return np.cos(0.5 * np.pi * s) * SIGMA_X + np.sin(0.5 * np.pi * s) * SIGMA_Z


def hamiltonian_h2(s: float) -> np.ndarray:
    """cos(pi s/2) (X1 + X2) + sin(pi s/2) (2 Z1 Z2)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    eye = np.eye(2, dtype=complex)
    x1 = np.kron(eye, SIGMA_X)  # qubit 1 is the least significant factor
    x2 = np.kron(SIGMA_X, eye)
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    return np.cos(0.5 * np.pi * s) * (x1 + x2) + np.sin(0.5 * np.pi * s) * (2.0 * zz)


def rho_h1(s: float, tau: float) -> np.ndarray:
    """Exact single-qubit density matrix at normalized time ``s``.

    The Bloch vector is a rotation of (-1, 0, 0) about the fixed axis
    (2 tau, pi/2, 0) in the frame co-rotating with the field, mapped back to
    the lab frame.  The relative sign of the two z-axis terms keeps the
    Bloch vector on the unit sphere for every ``s``; the independent
    Runge-Kutta check in the test suite pins the overall convention.
    """
    _check_args(s, tau)
    r = 2.0 * tau
    w0 = 0.5 * np.pi
    w1 = np.hypot(r, w0)
    cos0, sin0 = np.cos(w0 * s), np.sin(w0 * s)
    cos1, sin1 = np.cos(w1 * s), np.sin(w1 * s)
    core = r * r + w0 * w0 * cos1
    x = -(core * cos0 + w0 * w1 * sin0 * sin1) / (w1 * w1)
    y = -r * w0 * (1.0 - cos1) / (w1 * w1)
    z = (-core * sin0 + w0 * w1 * cos0 * sin1) / (w1 * w1)
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def psi_h2(s: float, tau: float) -> np.ndarray:
    """Exact two-qubit state vector ``(c0, c1, c1, c0)`` at normalized time s."""
    _check_args(s, tau)
    kappa = np.sqrt(1.0 + 64.0 * tau * tau / (np.pi * np.pi))
    phi = 0.25 * np.pi * s * kappa
    sin_env = np.sin(0.5 * np.pi * s)
    cos_env = np.cos(0.5 * np.pi * s)
    u_plus = np.sqrt(1.0 + sin_env)
    u_minus = np.sqrt(max(1.0 - sin_env, 0.0))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    c0 = cos_phi * u_minus / 2.0 + (
        8.0j * tau * u_minus / np.pi + u_plus
    ) * sin_phi / (2.0 * kappa)
    c1 = -(
        cos_phi * (1.0 + sin_env)
        + (-cos_env + 8.0j * tau * (1.0 + sin_env) / np.pi) * sin_phi / kappa
    ) / (2.0 * u_plus)
    return np.array([c0, c1, c1, c0], dtype=complex)


def rho_h2(s: float, tau: float) -> np.ndarray:
    """Exact two-qubit density matrix: outer product of :func:`psi_h2`."""
    psi = psi_h2(s, tau)
    return np.outer(psi, psi.conj())


def trace_distance(rho_1: np.ndarray, rho_2: np.ndarray) -> float:
    """Half the sum of the absolute eigenvalues of the (Hermitian) difference."""
    rho_1 = np.asarray(rho_1)
    rho_2 = np.asarray(rho_2)
    if rho_1.shape != rho_2.shape:
        raise ValueError(f"shape mismatch: {rho_1.shape} vs {rho_2.shape}")
    diff = rho_1 - rho_2
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
